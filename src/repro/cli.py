"""Command-line interface: regenerate any of the paper's artefacts.

Usage::

    repro-hetsim list                # show the experiment index
    repro-hetsim run F6              # regenerate Figure 6
    repro-hetsim run T5 F10          # several at once
    repro-hetsim all                 # everything, in paper order
    repro-hetsim speedup --workload fft --f 0.99
    repro-hetsim export --out results/
    repro-hetsim pareto --workload mmm --f 0.99 --node 22
    repro-hetsim sensitivity --workload mmm --f 0.99 --trials 100
    repro-hetsim calibrate --throughput 600 --area 20 --watts 18 \\
                 --workload mmm --name TensorUnit
    repro-hetsim materialize build --dir tensors/
    repro-hetsim serve --tensor-dir tensors/
    repro-hetsim profile http://127.0.0.1:8080 --seconds 5
    repro-hetsim dse list-scenarios --json
    repro-hetsim dse run --scenario baseline --mode halving
    repro-hetsim dse pareto --scenario-file my_scenario.json

The one-off subcommands answer designer questions without writing
code: ``speedup`` projects a workload across the roadmap, ``pareto``
prints the speedup/energy frontier at one node, ``sensitivity``
Monte-Carlos the winner under parameter noise, ``calibrate`` derives
(mu, phi) for a user-measured accelerator, and ``serve`` exposes the
model as an HTTP JSON API (see :mod:`repro.service`).

Exit codes are stable so scripts can branch on the failure class:

====  ===============================================================
code  meaning
====  ===============================================================
0     success
1     runtime failure (e.g. a claim-validation mismatch)
2     usage or validation error (bad arguments, unknown names)
3     infeasible design (the budgets admit no design point)
4     calibration error (inconsistent or insufficient measured data)
5     benchmark regression gate failure (``bench-check``)
====  ===============================================================

Every intentional error prints a one-line ``error: ...`` message to
stderr -- never a traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ._version import __version__
from .errors import (
    CalibrationError,
    InfeasibleDesignError,
    ModelError,
    ReproError,
    ServiceError,
    UnknownDeviceError,
    UnknownExperimentError,
    UnknownWorkloadError,
)

# Each command imports the modules it runs, so a process pays only
# for its own command (``serve`` and ``materialize build`` load no
# reporting, layout, measurement, simulation or DSE code).

__all__ = ["main", "build_parser", "exit_code_for"]

#: Stable exit codes (documented in the module docstring).
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_CALIBRATION = 4
EXIT_REGRESSION = 5


def exit_code_for(exc: ReproError) -> int:
    """Map an intentional library error to its stable exit code."""
    if isinstance(
        exc,
        (
            ModelError,
            UnknownDeviceError,
            UnknownWorkloadError,
            UnknownExperimentError,
            ServiceError,
        ),
    ):
        return EXIT_USAGE
    if isinstance(exc, InfeasibleDesignError):
        return EXIT_INFEASIBLE
    if isinstance(exc, CalibrationError):
        return EXIT_CALIBRATION
    return EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    from .core.metrics import Objective
    from .itrs.scenarios import scenario_names

    parser = argparse.ArgumentParser(
        prog="repro-hetsim",
        description=(
            "Reproduce Chung et al., 'Single-Chip Heterogeneous "
            "Computing' (MICRO 2010): tables, figures, projections."
        ),
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list all experiment ids")

    run_parser = sub.add_parser("run", help="regenerate artefacts by id")
    run_parser.add_argument(
        "ids", nargs="+", metavar="ID",
        help="experiment ids, e.g. T5 F6 S6.2",
    )

    sub.add_parser("all", help="regenerate every artefact in order")

    speedup = sub.add_parser(
        "speedup", help="project one workload/f across the roadmap"
    )
    speedup.add_argument(
        "--workload", required=True, choices=("mmm", "fft", "bs")
    )
    speedup.add_argument("--f", type=float, required=True,
                         help="parallel fraction in [0, 1]")
    speedup.add_argument(
        "--fft-size", type=int, default=1024,
        help="FFT input size (default 1024)",
    )
    speedup.add_argument(
        "--scenario", default="baseline", choices=scenario_names(),
        help="budget scenario (Section 6.2)",
    )

    sub.add_parser(
        "validate",
        help="check the paper's conclusions against the live model",
    )

    export = sub.add_parser(
        "export", help="write all artefacts + figure CSVs to a directory"
    )
    export.add_argument("--out", required=True,
                        help="output directory (created if missing)")

    pareto = sub.add_parser(
        "pareto", help="speedup/energy Pareto frontier at one node"
    )
    pareto.add_argument("--workload", required=True,
                        choices=("mmm", "fft", "bs"))
    pareto.add_argument("--f", type=float, required=True)
    pareto.add_argument("--node", type=int, default=22,
                        help="technology node in nm (default 22)")
    pareto.add_argument("--fft-size", type=int, default=1024)

    sens = sub.add_parser(
        "sensitivity",
        help="Monte-Carlo winner analysis under parameter noise",
    )
    sens.add_argument("--workload", required=True,
                      choices=("mmm", "fft", "bs"))
    sens.add_argument("--f", type=float, required=True)
    sens.add_argument("--node", type=int, default=11)
    sens.add_argument("--trials", type=int, default=200)
    sens.add_argument("--sigma", type=float, default=0.3,
                      help="log-normal sigma for mu/phi noise")
    sens.add_argument("--seed", type=int, default=2010)

    calibrate = sub.add_parser(
        "calibrate",
        help="derive (mu, phi) for a user-measured accelerator",
    )
    calibrate.add_argument("--name", required=True)
    calibrate.add_argument("--workload", required=True,
                           choices=("mmm", "fft", "bs"))
    calibrate.add_argument("--fft-size", type=int, default=1024)
    calibrate.add_argument(
        "--throughput", type=float, required=True,
        help="normalised throughput (GFLOP/s for mmm/fft, Mopts/s for bs)",
    )
    calibrate.add_argument("--area", type=float, required=True,
                           help="normalised compute area, mm^2 at 40nm")
    calibrate.add_argument("--watts", type=float, required=True,
                           help="normalised compute power, W at 40nm")

    floorplan = sub.add_parser(
        "floorplan",
        help="draw the floorplan of one design at one node",
    )
    floorplan.add_argument("--workload", required=True,
                           choices=("mmm", "fft", "bs"))
    floorplan.add_argument("--f", type=float, required=True)
    floorplan.add_argument("--node", type=int, default=40)
    floorplan.add_argument(
        "--design", default="ASIC",
        help="design label (SymCMP/AsymCMP/LX760/GTX285/GTX480/"
             "R5870/ASIC)",
    )
    floorplan.add_argument("--fft-size", type=int, default=1024)

    trace = sub.add_parser(
        "trace",
        help="simulate one design's execution timeline",
    )
    trace.add_argument("--workload", required=True,
                       choices=("mmm", "fft", "bs"))
    trace.add_argument("--f", type=float, required=True)
    trace.add_argument("--node", type=int, default=40)
    trace.add_argument("--design", default="ASIC")
    trace.add_argument("--fft-size", type=int, default=1024)

    advise_parser = sub.add_parser(
        "advise",
        help="rank all designs for a requirement, with rationale",
    )
    advise_parser.add_argument("--workload", required=True,
                               choices=("mmm", "fft", "bs"))
    advise_parser.add_argument("--f", type=float, required=True)
    advise_parser.add_argument("--node", type=int, default=40)
    advise_parser.add_argument(
        "--objective",
        default="max-speedup",
        choices=[obj.value for obj in Objective],
    )
    advise_parser.add_argument("--fft-size", type=int, default=1024)

    sub.add_parser(
        "manifest",
        help="print the calibration manifest as JSON",
    )

    campaign = sub.add_parser(
        "campaign",
        help=(
            "run the Figure 6-9 projection campaign as a durable, "
            "resumable job (repro.campaign)"
        ),
    )
    campaign.add_argument(
        "--figures", nargs="+", default=["F6", "F7", "F8", "F9"],
        metavar="FIG",
        help="figure panels to project (default: F6 F7 F8 F9)",
    )
    campaign.add_argument(
        "--jobs", type=int, default=None,
        help=(
            "width of the --executor process pool (default: CPU "
            "count; 1 runs serially)"
        ),
    )
    campaign.add_argument(
        "--executor", default="serial",
        choices=("serial", "process", "cluster"),
        help=(
            "serial (default) runs the panels one at a time in this "
            "process; 'process' spreads them across a spawned pool, "
            "which pays off only for seconds of work; 'cluster' "
            "drains the campaign cooperatively with other --join "
            "processes through store lease files"
        ),
    )
    campaign.add_argument(
        "--join", action="store_true",
        help=(
            "join a distributed campaign: implies --executor cluster "
            "and --resume; every process launched with the same "
            "--store-dir claims tasks through atomic lease files and "
            "the final output is bit-identical to a serial run"
        ),
    )
    campaign.add_argument(
        "--lease-ttl-s", type=float, default=10.0, metavar="S",
        help=(
            "cluster executor: heartbeat ttl before a peer may take "
            "over a dead worker's claimed task (default 10)"
        ),
    )
    campaign.add_argument(
        "--method", default="batch", choices=("batch", "scalar"),
        help="projection path per panel (default: batch)",
    )
    campaign.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help=(
            "content-addressed result store root; completed panels "
            "checkpoint here (default: none, nothing is checkpointed)"
        ),
    )
    campaign.add_argument(
        "--resume", action="store_true",
        help=(
            "answer panels already in the store instead of "
            "re-executing them (requires --store-dir to be useful)"
        ),
    )
    campaign.add_argument(
        "--retries", type=int, default=2,
        help="per-panel retry budget with exponential backoff "
             "(default: 2)",
    )
    campaign.add_argument(
        "--trace-file", default=None, metavar="PATH",
        help=(
            "append every finished span (campaign.run, per-task, "
            "store writes) as one JSON line to PATH"
        ),
    )
    campaign.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        help=(
            "structured-log level (DEBUG/INFO/WARNING/ERROR; "
            "default: $REPRO_LOG_LEVEL or INFO)"
        ),
    )
    campaign.add_argument(
        "--no-profile", action="store_false", dest="profile",
        help=(
            "do not run the continuous sampling profiler for the "
            "campaign window (on by default; parent-side only)"
        ),
    )

    bench_check = sub.add_parser(
        "bench-check",
        help=(
            "gate the newest benchmark runs against their rolling "
            "history baseline (repro.obs.regress)"
        ),
    )
    bench_check.add_argument(
        "--history", default="BENCH_history.jsonl", metavar="PATH",
        help=(
            "append-only JSONL run store written by the BENCH_* "
            "writers (default: BENCH_history.jsonl)"
        ),
    )
    bench_check.add_argument(
        "--benchmark", default=None, metavar="NAME",
        help="check one benchmark only (default: every benchmark "
             "present in the history)",
    )
    bench_check.add_argument(
        "--window", type=int, default=5,
        help="rolling-baseline width in runs (default 5)",
    )
    bench_check.add_argument(
        "--min-runs", type=int, default=3,
        help=(
            "comparable runs required before a verdict; below this "
            "every metric reports no-baseline and the gate stays "
            "open (default 3)"
        ),
    )
    bench_check.add_argument(
        "--tolerance", type=float, default=0.10,
        help=(
            "relative slack around the bootstrap interval for "
            "directional (time/rate) metrics; two-sided model "
            "outputs always gate on any drift (default 0.10)"
        ),
    )
    bench_check.add_argument(
        "--seed", type=int, default=2010,
        help="bootstrap RNG seed; fixed seed = bit-identical "
             "verdicts (default 2010)",
    )
    bench_check.add_argument(
        "--warn-only", action="store_true",
        help="report regressions but exit 0 (CI bootstrap mode)",
    )
    bench_check.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="also write the full verdict payload as JSON to PATH",
    )

    materialize = sub.add_parser(
        "materialize",
        help=(
            "build/refresh/verify the memory-mapped projection tensor "
            "store (repro.perf.tensorstore)"
        ),
    )
    materialize.add_argument(
        "action", choices=("build", "refresh", "verify"),
        help=(
            "build: materialize the full paper grid and publish "
            "atomically; refresh: rebuild only if the store is stale "
            "(resuming from --store-dir); verify: re-check every "
            "checksum on disk"
        ),
    )
    materialize.add_argument(
        "--dir", required=True, metavar="DIR", dest="tensor_dir",
        help="tensor store directory (the manifest publishes last, "
             "atomically)",
    )
    materialize.add_argument(
        "--scenario", default="baseline", choices=scenario_names(),
        help="budget scenario to materialize (default: baseline)",
    )
    materialize.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help=(
            "content-addressed campaign result store; a build "
            "checkpoints every task here and refresh resumes "
            "completed tasks from it (default: none, nothing is "
            "checkpointed)"
        ),
    )

    dse = sub.add_parser(
        "dse",
        help=(
            "design-space exploration: declarative scenarios, "
            "multi-U-core chips, Pareto fronts (repro.dse)"
        ),
    )
    dse.add_argument(
        "action", choices=("run", "pareto", "list-scenarios"),
        help=(
            "run: evaluate a scenario and summarise the front; "
            "pareto: print the dominance-pruned front (table or "
            "--json); list-scenarios: builtin + on-disk scenarios"
        ),
    )
    dse.add_argument(
        "--scenario", default="baseline", metavar="NAME",
        help="builtin DSE scenario name (default: baseline)",
    )
    dse.add_argument(
        "--scenario-file", default=None, metavar="PATH",
        help="load the scenario from a DSL JSON file instead",
    )
    dse.add_argument(
        "--dir", default=None, metavar="DIR", dest="scenario_dir",
        help="directory of *.json scenario files (list-scenarios)",
    )
    dse.add_argument(
        "--mode", default="exhaustive",
        choices=("exhaustive", "halving"),
        help=(
            "search strategy: exhaustive sweep or successive "
            "halving (default: exhaustive; both yield the same front)"
        ),
    )
    dse.add_argument(
        "--area-scale", nargs="+", type=float, default=[1.0],
        metavar="X", help="area budget scale grid (default: 1.0)",
    )
    dse.add_argument(
        "--power-scale", nargs="+", type=float, default=[1.0],
        metavar="X", help="power budget scale grid (default: 1.0)",
    )
    dse.add_argument(
        "--rungs", nargs="+", type=int, default=None, metavar="R",
        help="halving fidelity rungs, strictly increasing "
             "(default: 2 4)",
    )
    dse.add_argument(
        "--r-max", type=int, default=16,
        help="largest sequential-core size in BCEs (default 16)",
    )
    dse.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="print at most N front rows (default: all)",
    )
    dse.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit JSON instead of a table",
    )

    metrics_dump = sub.add_parser(
        "metrics-dump",
        help=(
            "print the process-wide metrics registry "
            "(repro.obs; counters, gauges, phase histograms)"
        ),
    )
    metrics_dump.add_argument(
        "--format", default="json", choices=("json", "prom"),
        dest="dump_format",
        help="output form: JSON snapshot or Prometheus text "
             "exposition (default: json)",
    )

    serve = sub.add_parser(
        "serve",
        help="serve the model as an HTTP JSON API (repro.service)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port (default 8080; 0 = ephemeral)")
    serve.add_argument(
        "--workers", type=int, default=1,
        help=(
            "worker processes (default 1 = classic single-process "
            "serving); N>1 boots a rendezvous-hashing router on "
            "--host/--port with N ModelService workers behind it "
            "(repro.cluster)"
        ),
    )
    serve.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help=(
            "campaign result store backing POST /v1/jobs "
            "(default: a throwaway temp directory)"
        ),
    )
    serve.add_argument(
        "--tensor-dir", default=None, metavar="DIR",
        help=(
            "published tensor store ('repro-hetsim materialize "
            "build'); on-grid requests answer straight from the "
            "memory-mapped tensors, everything else falls back to "
            "live compute"
        ),
    )
    serve.add_argument(
        "--drain-timeout-s", type=float, default=5.0,
        help=(
            "graceful-shutdown budget after SIGTERM/SIGINT before "
            "open connections are dropped (default 5)"
        ),
    )
    serve.add_argument(
        "--trace-file", default=None, metavar="PATH",
        help=(
            "append every finished span as one JSON line to PATH "
            "(the in-memory buffer behind GET /v1/traces stays on "
            "either way); a keep-alive model POST without X-Request-Id "
            "that answers 2xx records no span"
        ),
    )
    serve.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        help=(
            "structured access/lifecycle log level (DEBUG/INFO/"
            "WARNING/ERROR; default: $REPRO_LOG_LEVEL or INFO)"
        ),
    )
    serve.add_argument(
        "--no-profile", action="store_false", dest="profile",
        help=(
            "disable the continuous sampling profiler "
            "(GET /v1/profile then answers 503)"
        ),
    )

    profile_parser = sub.add_parser(
        "profile",
        help=(
            "capture a sampled stack profile from a running server "
            "(repro.obs.prof; table, folded stacks, or JSON)"
        ),
    )
    profile_parser.add_argument(
        "target", metavar="URL|JOB",
        help=(
            "server base URL (http://host:port or host:port) to "
            "sample now, or a job id from POST /v1/jobs (resolved "
            "against --url; a finished job reports the sampler's "
            "full window, which contains it)"
        ),
    )
    profile_parser.add_argument(
        "--url", default="http://127.0.0.1:8080", metavar="URL",
        help="server base URL when TARGET is a job id "
             "(default http://127.0.0.1:8080)",
    )
    profile_parser.add_argument(
        "--seconds", type=float, default=2.0, metavar="S",
        help="capture window length (default 2; 0 = everything "
             "since the sampler started)",
    )
    profile_parser.add_argument(
        "--top", type=int, default=15, metavar="N",
        help="rows in the self-time table (default 15)",
    )
    profile_parser.add_argument(
        "--format", default="table",
        choices=("table", "folded", "json"), dest="profile_format",
        help="output form (default: table)",
    )
    profile_parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the folded stacks to PATH (flamegraph.pl / "
             "speedscope input)",
    )

    watch = sub.add_parser(
        "watch",
        help=(
            "tail a live event stream (a campaign job id, 'slo', or "
            "the cluster router's 'cluster' stream) from a running "
            "server"
        ),
    )
    watch.add_argument(
        "stream", metavar="STREAM",
        help="stream name: a job id from POST /v1/jobs, 'slo', or "
             "'cluster' (against a router)",
    )
    watch.add_argument(
        "--url", default="http://127.0.0.1:8080", metavar="URL",
        help="server base URL (default http://127.0.0.1:8080)",
    )
    watch.add_argument(
        "--cursor", type=int, default=0,
        help="first event sequence number wanted (default 0: full "
             "replay from the durable log)",
    )
    watch.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the canonical JSON event lines instead of the "
             "human rendering",
    )
    watch.add_argument(
        "--timeout-s", type=float, default=None, metavar="S",
        help="give up (exit 1) if the stream has not ended after S "
             "seconds (default: wait forever)",
    )
    return parser


def _cmd_list() -> str:
    from .reporting.experiments import EXPERIMENTS, experiment_ids

    lines = ["experiment  title"]
    lines.append("----------  -----")
    for exp_id in experiment_ids():
        lines.append(f"{exp_id:<10}  {EXPERIMENTS[exp_id].title}")
    return "\n".join(lines)


def _cmd_run(ids: List[str]) -> str:
    from .reporting.experiments import run_experiment

    outputs = []
    for exp_id in ids:
        outputs.append(run_experiment(exp_id))
    return "\n\n".join(outputs)


def _cmd_speedup(workload: str, f: float, fft_size: int,
                 scenario_name: str) -> str:
    from .itrs.scenarios import get_scenario
    from .projection.engine import project
    from .reporting.figures import render_projection_panel

    scenario = get_scenario(scenario_name)
    result = project(
        workload,
        f,
        scenario,
        fft_size=fft_size if workload == "fft" else None,
    )
    return render_projection_panel(result)


def _cmd_export(out: str) -> str:
    from .reporting.export import export_all

    written = export_all(out)
    count = sum(len(paths) for paths in written.values())
    return f"wrote {count} files under {out}/ (artifacts/ and csv/)"


def _cmd_pareto(workload: str, f: float, node_nm: int,
                fft_size: int) -> str:
    from .projection.pareto import design_space_points, pareto_frontier
    from .reporting.tables import format_table

    points = design_space_points(
        workload, f, node_nm,
        fft_size=fft_size if workload == "fft" else None,
    )
    frontier = pareto_frontier(points)
    rows = [
        (
            p.design.label,
            f"{p.r:g}",
            f"{p.speedup:.2f}x",
            f"{p.energy:.4f}",
        )
        for p in frontier
    ]
    return format_table(
        ["design", "r", "speedup", "energy (BCE=1)"],
        rows,
        title=(
            f"Pareto frontier: {workload} f={f} at {node_nm}nm "
            f"({len(frontier)} of {len(points)} candidate points)"
        ),
    )


def _cmd_sensitivity(workload: str, f: float, node_nm: int,
                     trials: int, sigma: float, seed: int) -> str:
    from .projection.sensitivity import SensitivityConfig, run_sensitivity
    from .reporting.tables import format_table

    summary = run_sensitivity(
        workload, f, node_nm,
        config=SensitivityConfig(
            mu_sigma=sigma, phi_sigma=sigma, trials=trials, seed=seed
        ),
    )
    rows = [
        (
            label,
            f"{summary.win_rate(label) * 100:.0f}%",
            f"{summary.median_speedup(label):.1f}x",
            f"{summary.spread(label) * 100:.0f}%",
        )
        for label in sorted(
            summary.speedups,
            key=summary.win_rate,
            reverse=True,
        )
    ]
    return format_table(
        ["design", "win rate", "median speedup", "IQR/median"],
        rows,
        title=(
            f"Sensitivity: {workload} f={f} at {node_nm}nm, "
            f"{trials} trials, mu/phi sigma={sigma}"
        ),
    )


def _cmd_calibrate(name: str, workload: str, fft_size: int,
                   throughput: float, area: float, watts: float) -> str:
    from .devices.measurements import get_measurement
    from .devices.params import FAST_CORE_DEVICE, derive_ucore
    from .devices.specs import Measurement

    size = fft_size if workload == "fft" else None
    unit = "Mopts/s" if workload == "bs" else "GFLOP/s"
    mine = Measurement(
        device=name,
        workload=workload,
        throughput=throughput,
        area_mm2=area,
        watts=watts,
        unit=unit,
        size=size,
    )
    fast = get_measurement(FAST_CORE_DEVICE, workload, size)
    ucore = derive_ucore(mine, fast)
    return (
        f"{ucore.describe()}\n"
        f"(derived against {FAST_CORE_DEVICE}"
        + (f", FFT-{size}" if size else "")
        + f"; x={mine.perf_per_mm2:.3g} {unit}/mm2, "
        f"e={mine.perf_per_joule:.3g} {unit.split('/')[0]}/J)"
    )


def _resolve_design(workload: str, f: float, node_nm: int,
                    fft_size: int, design_label: str):
    """Shared lookup for the floorplan/trace subcommands."""
    from .core.optimizer import optimize
    from .itrs.roadmap import ITRS_2009
    from .projection.designs import standard_designs
    from .projection.engine import node_budget

    size = fft_size if workload == "fft" else None
    designs = {
        d.short_label: d for d in standard_designs(workload, size)
    }
    try:
        design = designs[design_label]
    except KeyError:
        raise ModelError(
            f"unknown design {design_label!r} for {workload}; "
            f"available: {sorted(designs)}"
        ) from None
    node = ITRS_2009.node(node_nm)
    budget = node_budget(
        node, workload, size,
        bandwidth_exempt=design.bandwidth_exempt,
    )
    point = optimize(design.chip, f, budget)
    return design, node, budget, point


def _cmd_floorplan(workload: str, f: float, node_nm: int,
                   fft_size: int, design_label: str) -> str:
    from .layout.floorplan import build_floorplan
    from .layout.render import render_floorplan

    design, node, _, point = _resolve_design(
        workload, f, node_nm, fft_size, design_label
    )
    plan = build_floorplan(design.chip, point, node)
    return (
        point.describe()
        + "\n"
        + render_floorplan(plan)
    )


def _cmd_trace(workload: str, f: float, node_nm: int,
               fft_size: int, design_label: str) -> str:
    from .sim.engine import ChipSimulator

    design, node, budget, point = _resolve_design(
        workload, f, node_nm, fft_size, design_label
    )
    trace = ChipSimulator(
        design.chip, point, budget, rel_power=node.rel_power
    ).run_fraction(f)
    lines = [
        point.describe(),
        (
            f"simulated: speedup {trace.speedup:.2f}x, energy "
            f"{trace.total_energy:.4f} (BCE@40nm=1), avg power "
            f"{trace.average_power:.2f} BCE"
        ),
    ]
    for event in trace.events:
        kind = "serial  " if event.phase.serial else "parallel"
        stall = "  [bandwidth-capped]" if event.bandwidth_stalled else ""
        lines.append(
            f"  {kind} t={event.start:.4f}..{event.end:.4f} "
            f"rate={event.throughput:.1f} power={event.power:.2f}"
            f"{stall}"
        )
    return "\n".join(lines)


def _checked_level(level: Optional[str]) -> Optional[str]:
    """Validate a --log-level value; bad names exit with code 2."""
    if level is not None:
        from .obs.logging import resolve_level

        try:
            resolve_level(level)
        except ValueError as exc:
            raise ModelError(str(exc)) from None
    return level


def _cmd_metrics_dump(dump_format: str) -> str:
    import json as _json

    from .obs.metrics import get_registry
    from .obs.slo import get_slo_tracker
    from .perf import cache as _cache  # noqa: F401 - registers gauges

    # Materialise the SLO/error-budget families (and refresh their
    # gauges) so the dump shows the same shape a server scrape would.
    tracker = get_slo_tracker()
    tracker.refresh_gauges()
    registry = get_registry()
    if dump_format == "prom":
        return registry.render_prometheus().rstrip("\n")
    snapshot = registry.snapshot()
    # The shaped sections a live server's /metrics JSON carries on
    # top of the raw families: the SLO/error-budget view and the DSE
    # submission tallies (both were silently missing from the dump).
    snapshot["slo"] = tracker.snapshot()
    dse = {"accepted": 0, "rejected": 0}
    for labels, count in registry.counter(
        "repro_dse_requests_total",
        "DSE job submissions by mode and outcome",
    ).series():
        if labels:
            outcome = labels.get("outcome", "accepted")
            dse[outcome] = dse.get(outcome, 0) + int(count)
    snapshot["dse"] = dse
    return _json.dumps(snapshot, indent=2, sort_keys=True)


def _cmd_profile(target: str, url: str, seconds: float, top: int,
                 profile_format: str, out: Optional[str]) -> str:
    """Capture one sampled profile off a running server (or router).

    ``target`` is either a server base URL (sampled directly) or a
    job id (resolved against ``--url``; a live job gets a fresh
    window, a finished one gets the sampler's full window, which
    contains the job's run).  Against a router the capture is the
    fleet merge with per-worker ``worker:wN`` attribution.
    """
    import json as _json
    import pathlib
    import re as _re
    import urllib.error
    import urllib.request

    from .obs.prof import FoldedProfile
    from .reporting.tables import format_table

    if seconds < 0 or seconds > 60:
        raise ModelError(
            f"--seconds must be in [0, 60], got {seconds:g}"
        )

    def _fetch(base: str, path: str):
        full = base.rstrip("/") + path
        try:
            with urllib.request.urlopen(
                full, timeout=seconds + 30.0
            ) as response:
                body = response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode("utf-8", "replace")
            try:
                detail = _json.loads(detail).get("message", detail)
            except ValueError:
                pass
            raise ModelError(
                f"profile capture refused ({exc.code}): {detail}"
            ) from None
        except (urllib.error.URLError, OSError) as exc:
            raise ModelError(f"cannot reach {full}: {exc}") from None
        return _json.loads(body)

    if "://" in target or _re.match(r"^[\w.\-]+:\d+$", target):
        base = target if "://" in target else f"http://{target}"
        capture_seconds = seconds
    else:
        base = url
        job = _fetch(base, f"/v1/jobs/{target}")
        state = job.get("state")
        # A finished job cannot be re-sampled live; the sampler's
        # full window (seconds=0) still contains its run.
        terminal = state in ("succeeded", "failed")
        capture_seconds = 0.0 if terminal else seconds

    doc = _fetch(
        base,
        f"/v1/profile?seconds={capture_seconds:g}&format=json",
    )
    # A router answers {"workers": {...}, "merged": <payload>}; a
    # single worker answers the payload directly.
    merged = doc.get("merged", doc)
    profile = FoldedProfile.from_payload(merged)
    folded_text = profile.to_text()
    if out is not None:
        pathlib.Path(out).write_text(folded_text)

    if profile_format == "json":
        body = _json.dumps(doc, indent=2, sort_keys=True)
    elif profile_format == "folded":
        body = folded_text.rstrip("\n")
    else:
        rows = [
            (
                entry["frame"],
                f"{entry['self_s']:.3f}s",
                f"{entry['self_pct']:.1f}%",
            )
            for entry in profile.top_self(top)
        ]
        workers = doc.get("workers")
        fleet = f" across {len(workers)} worker(s)" if workers else ""
        body = format_table(
            ["frame", "self time", "self %"],
            rows,
            title=(
                f"Profile: {profile.samples} samples at "
                f"{profile.hz:g} Hz over {profile.duration_s:.2f}s"
                f"{fleet} ({len(profile.counts)} unique stacks)"
            ),
        )
    if out is not None:
        body += f"\nwrote folded profile to {out}"
    return body


def _cmd_bench_check(history: str, benchmark: Optional[str],
                     window: int, min_runs: int, tolerance: float,
                     seed: int, warn_only: bool,
                     json_out: Optional[str]) -> "tuple[str, int]":
    """Gate the newest runs against their history; returns
    ``(report text, exit code)``."""
    import pathlib

    from .obs.regress import check_history

    path = pathlib.Path(history)
    if not path.exists():
        if warn_only:
            return (
                f"bench-check: no history at {path} yet (warn-only)",
                EXIT_OK,
            )
        raise ModelError(
            f"no benchmark history at {path}; run the BENCH_* writers "
            f"first (make bench-history) or pass --warn-only"
        )
    report = check_history(
        path, benchmark=benchmark, window=window, min_runs=min_runs,
        tolerance=tolerance, seed=seed,
    )
    if json_out is not None:
        pathlib.Path(json_out).write_text(report.to_json() + "\n")
    output = report.render()
    if report.failures and warn_only:
        output += "\n(warn-only: exit 0 despite gated failures)"
    code = (
        EXIT_REGRESSION if report.failures and not warn_only else EXIT_OK
    )
    return output, code


def _cmd_campaign(figures: List[str], jobs: Optional[int],
                  executor: str, method: str,
                  store_dir: Optional[str] = None,
                  resume: bool = False, retries: int = 2,
                  trace_file: Optional[str] = None,
                  log_level: Optional[str] = None,
                  join: bool = False,
                  lease_ttl_s: float = 10.0,
                  profile: bool = True) -> str:
    from .campaign.runner import CampaignRunner
    from .campaign.spec import CampaignSpec
    from .campaign.store import ResultStore
    from .obs.logging import configure_logging
    from .obs.trace import configure_tracer
    from .reporting.tables import format_table

    configure_logging(log_level)
    if trace_file is not None:
        configure_tracer(trace_file)
    if join:
        # --join is the distributed entry: always the cluster
        # executor, always resuming from the shared store.
        executor, resume = "cluster", True
    if executor == "cluster" and store_dir is None:
        raise ModelError(
            "--executor cluster (or --join) requires --store-dir: "
            "the store is how joined processes coordinate"
        )
    spec = CampaignSpec(
        name="cli-figures", figures=tuple(figures), method=method
    )
    runner = CampaignRunner(
        # No --store-dir: nothing to resume from, so no checkpoint.
        store=ResultStore(store_dir) if store_dir is not None else None,
        workers=jobs,
        executor=executor,
        retries=retries,
        resume=resume,
        lease_ttl_s=lease_ttl_s,
        profile=profile,
    )
    report = runner.run(spec)
    rows = []
    failures = []
    for outcome in report.outcomes:
        task = outcome.task
        if outcome.status == "failed":
            failures.append(f"  {task.figure} f={task.f:g}: {outcome.error}")
            continue
        winner = outcome.result["winner"]
        rows.append(
            (
                task.figure,
                task.workload + (f"-{task.fft_size}" if task.fft_size else ""),
                f"{task.f:g}",
                task.scenario,
                winner["design"],
                f"{winner['final_speedup']:.1f}x",
                outcome.status,
            )
        )
    # Only a process pool has a width to report.
    width = f", jobs={jobs or 'auto'}" if executor == "process" else ""
    table = format_table(
        ["figure", "workload", "f", "scenario", "winner",
         "final speedup", "status"],
        rows,
        title=(
            f"Campaign: {len(report.outcomes)} panels in "
            f"{report.elapsed_s:.2f}s "
            f"({executor}{width}, method={method}; "
            f"{report.executed} executed, {report.cached} resumed)"
        ),
    )
    lines = [table]
    if runner.last_profile is not None and runner.last_profile.samples:
        lines.append(
            f"profile: {runner.last_profile.samples} samples at "
            f"{runner.last_profile.hz:g} Hz "
            f"({len(runner.last_profile.counts)} unique stacks)"
        )
    if runner.store is not None:
        lines.append(f"store: {runner.store.directory}")
    lease_events = runner.store.lease_stats() if runner.store else {}
    if lease_events:
        lines.append(
            "leases: "
            + " ".join(
                f"{event}={count}"
                for event, count in lease_events.items()
            )
        )
    if failures:
        lines.append(f"{len(failures)} panel(s) failed:")
        lines.extend(failures)
    return "\n".join(lines)


def _resolve_dse_scenario(scenario_name: str,
                          scenario_file: Optional[str]):
    """``--scenario-file`` wins over ``--scenario``."""
    from .dse import builtin_scenario, load_scenario_file

    if scenario_file is not None:
        return load_scenario_file(scenario_file), scenario_file
    return builtin_scenario(scenario_name), "builtin"


def _dse_front_rows(front) -> List[tuple]:
    return [
        (
            p.chip,
            p.node,
            f"{p.f:g}",
            f"{p.area_scale:g}/{p.power_scale:g}",
            f"{p.speedup:.2f}x",
            f"{p.r:g}",
            f"{p.n:g}",
            p.limiter,
        )
        for p in front
    ]


_DSE_FRONT_HEADER = [
    "chip", "node", "f", "area/power scale", "speedup", "r", "n",
    "limiter",
]


def _cmd_dse(action: str, scenario_name: str,
             scenario_file: Optional[str],
             scenario_dir: Optional[str], mode: str,
             area_scale: List[float], power_scale: List[float],
             rungs: Optional[List[int]], r_max: int,
             limit: Optional[int], as_json: bool) -> str:
    import json as _json

    from .dse import (
        builtin_scenario_names,
        builtin_scenario,
        exhaustive_sweep,
        expand_configs,
        front_payload,
        list_scenario_files,
        load_scenario_file,
        pareto_front,
        scenario_summary,
        successive_halving,
    )
    from .reporting.tables import format_table

    if action == "list-scenarios":
        summaries = [
            scenario_summary(builtin_scenario(name), "builtin")
            for name in builtin_scenario_names()
        ]
        if scenario_dir is not None:
            summaries.extend(
                scenario_summary(load_scenario_file(path), str(path))
                for path in list_scenario_files(scenario_dir)
            )
        if as_json:
            return _json.dumps(summaries, indent=2)
        rows = [
            (
                s["name"],
                s["workload"],
                s["provider"],
                str(len(s["chips"])) if s["chips"] else "default",
                ",".join(f"{f:g}" for f in s["f_values"]),
                s["source"],
            )
            for s in summaries
        ]
        return format_table(
            ["scenario", "workload", "provider", "chips", "f values",
             "source"],
            rows,
            title=f"DSE scenarios ({len(rows)})",
        )

    scenario, source = _resolve_dse_scenario(
        scenario_name, scenario_file
    )
    if mode == "halving":
        result = successive_halving(
            scenario,
            area_scale_grid=tuple(area_scale),
            power_scale_grid=tuple(power_scale),
            rungs=tuple(rungs) if rungs is not None else (2, 4),
            r_max=r_max,
        )
        front = result.front
        stats = (
            f"{result.n_configs} configs in {result.n_classes} "
            f"equivalence classes; {result.full_evaluations} full + "
            f"{result.rung_evaluations} rung evaluations "
            f"({result.full_eval_fraction:.1%} of an exhaustive "
            f"sweep), {result.n_infeasible} infeasible"
        )
    else:
        if rungs is not None:
            raise ModelError(
                "--rungs only applies to --mode halving"
            )
        configs = expand_configs(
            scenario,
            area_scale_grid=tuple(area_scale),
            power_scale_grid=tuple(power_scale),
        )
        points, infeasible = exhaustive_sweep(configs, r_max=r_max)
        front = pareto_front(points)
        stats = (
            f"{len(configs)} configs evaluated exhaustively, "
            f"{infeasible} infeasible"
        )

    shown = front if limit is None else front[:limit]
    if action == "pareto":
        if as_json:
            payload = front_payload(front)
            payload["scenario"] = scenario.name
            payload["mode"] = mode
            return _json.dumps(payload, indent=2)
        return format_table(
            _DSE_FRONT_HEADER,
            _dse_front_rows(shown),
            title=(
                f"DSE Pareto front: {scenario.name} "
                f"({len(shown)} of {len(front)} points shown)"
            ),
        )
    if as_json:
        return _json.dumps(
            {
                "scenario": scenario.name,
                "source": source,
                "mode": mode,
                "stats": stats,
                "front": front_payload(front),
            },
            indent=2,
        )
    table = format_table(
        _DSE_FRONT_HEADER,
        _dse_front_rows(shown),
        title=(
            f"DSE run: {scenario.name} ({scenario.workload}, "
            f"provider {scenario.provider}) -- front "
            f"{len(shown)}/{len(front)}"
        ),
    )
    return f"{table}\n{stats}"


def _cmd_materialize(action: str, tensor_dir: str, scenario: str,
                     store_dir: Optional[str]) -> str:
    from .campaign.store import ResultStore
    from .perf.tensorstore import (
        TensorStore,
        build_tensor_store,
        materialize_spec,
    )

    def _summary(described: dict) -> str:
        mib = described["bytes"] / (1 << 20)
        return (
            f"{described['groups']} groups, "
            f"{described['designs']} designs, "
            f"{described['cells']} cells ({mib:.1f} MiB), "
            f"f-grid {described['f_points']} points, "
            f"r_max {described['r_max']}\n"
            f"spec {described['spec_hash'][:12]} built by model "
            f"{described['model_version']}"
        )

    if action == "verify":
        report = TensorStore.load(tensor_dir, verify=True).verify()
        return (
            f"tensor store at {tensor_dir}: ok "
            f"({report['files']} channel files verified)\n"
            + _summary(report)
        )

    spec = materialize_spec(scenario=scenario)
    if action == "refresh":
        # Cheap staleness probe: a loadable store built from the same
        # spec by this model version needs no work at all.
        from .errors import TensorStoreError

        try:
            current = TensorStore.load(tensor_dir, verify=False)
        except TensorStoreError:
            pass
        else:
            if current.manifest["spec_hash"] == spec.spec_hash():
                return (
                    f"tensor store at {tensor_dir} is current; "
                    f"nothing to do\n" + _summary(current.describe())
                )
    manifest = build_tensor_store(
        tensor_dir,
        spec=spec,
        store=ResultStore(store_dir) if store_dir is not None else None,
        resume=(action == "refresh"),
    )
    described = TensorStore.load(tensor_dir, verify=True).describe()
    return (
        f"materialized {len(manifest['task_hashes'])} tasks into "
        f"{tensor_dir}\n" + _summary(described)
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            output = _cmd_list()
        elif args.command == "run":
            output = _cmd_run(args.ids)
        elif args.command == "all":
            from .reporting.experiments import experiment_ids

            output = _cmd_run(experiment_ids())
        elif args.command == "speedup":
            output = _cmd_speedup(
                args.workload, args.f, args.fft_size, args.scenario
            )
        elif args.command == "validate":
            from .reporting.validation import (
                render_validation_report,
                validate_claims,
            )

            results = validate_claims()
            output = render_validation_report(results)
            if any(not r.passed for r in results):
                print(output)
                return 1
        elif args.command == "export":
            output = _cmd_export(args.out)
        elif args.command == "pareto":
            output = _cmd_pareto(
                args.workload, args.f, args.node, args.fft_size
            )
        elif args.command == "sensitivity":
            output = _cmd_sensitivity(
                args.workload, args.f, args.node, args.trials,
                args.sigma, args.seed,
            )
        elif args.command == "calibrate":
            output = _cmd_calibrate(
                args.name, args.workload, args.fft_size,
                args.throughput, args.area, args.watts,
            )
        elif args.command == "floorplan":
            output = _cmd_floorplan(
                args.workload, args.f, args.node, args.fft_size,
                args.design,
            )
        elif args.command == "trace":
            output = _cmd_trace(
                args.workload, args.f, args.node, args.fft_size,
                args.design,
            )
        elif args.command == "advise":
            from .core.metrics import Objective
            from .projection.advisor import (
                Requirement,
                advise,
                render_advice,
            )

            requirement = Requirement(
                workload=args.workload,
                f=args.f,
                node_nm=args.node,
                objective=Objective(args.objective),
                fft_size=(
                    args.fft_size if args.workload == "fft" else None
                ),
            )
            output = render_advice(advise(requirement))
        elif args.command == "manifest":
            from .reporting.manifest import manifest_json

            output = manifest_json()
        elif args.command == "campaign":
            output = _cmd_campaign(
                args.figures,
                args.jobs,
                args.executor,
                args.method,
                store_dir=args.store_dir,
                resume=args.resume,
                retries=args.retries,
                trace_file=args.trace_file,
                log_level=_checked_level(args.log_level),
                join=args.join,
                lease_ttl_s=args.lease_ttl_s,
                profile=args.profile,
            )
        elif args.command == "dse":
            output = _cmd_dse(
                args.action, args.scenario, args.scenario_file,
                args.scenario_dir, args.mode, args.area_scale,
                args.power_scale, args.rungs, args.r_max,
                args.limit, args.as_json,
            )
        elif args.command == "materialize":
            output = _cmd_materialize(
                args.action, args.tensor_dir, args.scenario,
                args.store_dir,
            )
        elif args.command == "metrics-dump":
            output = _cmd_metrics_dump(args.dump_format)
        elif args.command == "profile":
            output = _cmd_profile(
                args.target, args.url, args.seconds, args.top,
                args.profile_format, args.out,
            )
        elif args.command == "bench-check":
            output, code = _cmd_bench_check(
                args.history, args.benchmark, args.window,
                args.min_runs, args.tolerance, args.seed,
                args.warn_only, args.json_out,
            )
            print(output)
            return code
        elif args.command == "serve":
            from .service.app import ServiceConfig

            service_config = ServiceConfig(
                host=args.host,
                port=args.port,
                store_dir=args.store_dir,
                tensor_dir=args.tensor_dir,
                drain_timeout_s=args.drain_timeout_s,
                trace_file=args.trace_file,
                log_level=_checked_level(args.log_level),
                profile=args.profile,
            )
            if args.workers > 1:
                from .cluster import ClusterConfig, run_cluster_server

                run_cluster_server(
                    ClusterConfig(
                        workers=args.workers,
                        service=service_config,
                        host=args.host,
                        port=args.port,
                    )
                )
            else:
                from .service.http import run_server

                run_server(service_config)
            output = "server stopped"
        elif args.command == "watch":
            from .service.watch import watch as _watch

            # watch() streams its own lines; the return value is the
            # outcome-mirroring exit code (0 succeeded, 1 failed).
            return _watch(
                args.url,
                args.stream,
                cursor=args.cursor,
                as_json=args.as_json,
                timeout_s=args.timeout_s,
            )
        else:  # pragma: no cover - argparse enforces choices
            parser.error(f"unknown command {args.command!r}")
            return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    try:
        print(output)
    except BrokenPipeError:  # e.g. `repro-hetsim all | head`
        return 0
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
