#!/usr/bin/env python3
"""The benchmark: four seeded workloads, end-to-end and per-layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload api-ongrid --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.

Workloads (each reads its inputs from ``--seed``; see ``BENCHMARK.json``
for why each exists): ``api-ongrid`` (materialized serving),
``api-live`` (live compute), ``fleet`` (router + 2 workers over the
materialized store) and ``campaign`` (batch projection tasks, serial
executor, no HTTP).

``--trace 0`` measures the end-to-end metrics with no tracing: the
program is set up several times (set-up time is their median), warmed
up, then measured for ``--seconds``:

- ``setup_s``: from launch until the first answered model request;
- ``cpu_ms_per_op``: CPU time of the program's processes (``/proc``)
  per answered request, or per task on ``campaign``;
- ``latency_p50_ms``: request latency at the client; on ``campaign``
  each task's CPU time, which is its latency under the serial
  executor;
- ``ok_ratio`` and ``anon_rss_mb`` (resident heap memory at the end).

The host is shared: its hypervisor takes vCPUs away in bursts (steal
in ``/proc/stat``; 2-30% of a run on the 2-vCPU host the benchmark was
defined on), which moved wall-clock throughput and tails of the same
code by more than the bounds.  So time per op is CPU time, and serving
latency and CPU are counted only over the stretches between steal
readings in which nothing was stolen (see :mod:`client`).  Wall-clock
throughput, the p90 and p99 latencies and peak RSS are printed as
unbounded lines.

``--trace 1`` measures once untraced and once with span wrappers
around the program's layer boundaries, and reports the per-layer
metrics plus the tracing overhead (CPU per op, traced against
untraced).  Every run checks the program's answers and prints a host
record (CPU canary before and after, client and server CPU shares,
steal).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
when every check passed, 1 when a check failed, 2 on a usage or
environment error.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent

WORKLOADS = ("api-ongrid", "api-live", "fleet", "campaign")
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Closed-loop warm-up before every measured serving phase.
WARMUP_S = 2.0
#: Fleet size for the ``fleet`` workload.
FLEET_WORKERS = 2
#: Seed whose campaign digest ``BENCHMARK.json`` records.
DEFAULT_SEED = 1
#: How long a program gets to become ready.
READY_TIMEOUT_S = 120.0
#: Relative error allowed on interpolated answers (the store's bound).
INTERP_REL_BOUND = 1e-9
#: Warm-up passes before the measured campaign passes.
CAMPAIGN_WARMUP_PASSES = 1


@dataclass
class Outcome:
    """One workload run: metrics, counts, checks and printed notes."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Campaign results digests, one per drained pass.
    digests: List[str] = field(default_factory=list)

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)


class Context:
    """Paths, environment and inputs shared by one invocation."""

    def __init__(self, workload: str, seed: int, seconds: int,
                 bench: Dict[str, Any]):
        from procs import python_env

        self.bench = bench
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        root = CHECKOUT / ".perfbench_work"
        root.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=root))
        self.tmp = self.work / "tmp"
        self.tmp.mkdir()
        tempfile.tempdir = str(self.tmp)
        self.env = python_env(CHECKOUT, self.tmp)
        self.counter = 0
        self._near_grid: Optional[List[Tuple]] = None

    def fresh(self, stem: str) -> Path:
        self.counter += 1
        return self.work / f"{stem}-{self.counter}"

    def near_grid(self) -> List[Tuple]:
        if self._near_grid is None:
            import workloads

            self._near_grid = workloads.interpolable(
                workloads.near_grid_candidates(
                    self.seed, workloads.NEAR_GRID_POOL
                ),
                workloads.reference_optimal_r(),
            )
        return self._near_grid

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# -- set-up ----------------------------------------------------------------


def _traced_env(ctx: Context, trace_dir: Optional[Path]) -> Dict[str, str]:
    env = dict(ctx.env)
    if trace_dir is not None:
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    return env


def warm_page_cache(ctx: Context) -> None:
    """One throwaway import, so no timed set-up pays for a cold disk."""
    subprocess.run(
        [
            sys.executable, "-c",
            "import repro.cli, repro.service.http, repro.cluster.router, "
            "repro.campaign.runner, repro.perf.tensorstore, "
            "repro.dse.halving",
        ],
        cwd=str(CHECKOUT), env=ctx.env, check=True,
    )


def _ready_requests(ctx: Context) -> List[Tuple[str, bytes]]:
    """Model requests whose answers mark the program ready.

    A fleet is ready when every worker has answered one, so it gets one
    request per worker, each owned (by rendezvous hashing) by a
    different worker.
    """
    import workloads

    if ctx.workload == "api-live":
        return [("/v1/speedup", workloads.speedup_body(
            "mmm", "ASIC", 22, 0.987654, 16))]
    if ctx.workload == "api-ongrid":
        return [("/v1/speedup", workloads.speedup_body(
            "mmm", "ASIC", 22, 0.99, 16))]
    from repro.cluster.hashring import rendezvous_rank, shard_key

    names = [f"w{i}" for i in range(1, FLEET_WORKERS + 1)]
    owned: Dict[str, Tuple[str, bytes]] = {}
    for f in workloads.F_GRID:
        body = workloads.speedup_body("mmm", "ASIC", 22, f, 16)
        owner = rendezvous_rank(shard_key("/v1/speedup", body), names)[0]
        owned.setdefault(owner, ("/v1/speedup", body))
        if len(owned) == len(names):
            break
    return [owned[name] for name in names]


def set_up(ctx: Context, trace_dir: Optional[Path] = None):
    """Launch the serving program; returns ``(seconds, program, port)``.

    The clock runs from launching the first process (the tensor-store
    build on materialized workloads) until every ready request has been
    answered.
    """
    from procs import Program, free_port, post_all, wait_listening

    env = _traced_env(ctx, trace_dir)
    # The launcher is the CLI with span wrappers installed first.
    cli = (
        [sys.executable, str(HERE / "launch.py")]
        if trace_dir is not None
        else [sys.executable, "-m", "repro.cli"]
    )
    port = free_port()
    ready = _ready_requests(ctx)
    serve: List[str] = []
    if ctx.workload == "fleet":
        serve += ["--workers", str(FLEET_WORKERS)]
    start = time.perf_counter()
    if ctx.workload in ("api-ongrid", "fleet"):
        tensor_dir = ctx.fresh("tensors")
        with open(ctx.work / "build.log", "ab") as log:
            subprocess.run(
                cli + ["materialize", "build", "--dir", str(tensor_dir)],
                cwd=str(CHECKOUT), env=env, stdout=log,
                stderr=log, check=True, timeout=READY_TIMEOUT_S,
            )
        serve += ["--tensor-dir", str(tensor_dir)]
    program = Program(
        cli + ["serve", "--port", str(port)] + serve, env, CHECKOUT,
        ctx.work / "server.log",
    )
    try:
        wait_listening(port, program, READY_TIMEOUT_S)
        answers = post_all(port, ready, READY_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        for status, body in answers:
            if status != 200:
                raise RuntimeError(
                    f"ready request answered {status}: {body!r}"
                )
    except BaseException:
        program.stop()
        raise
    return elapsed, program, port


def server_counters(ctx: Context, port: int) -> Dict[str, float]:
    """The program's own counters: tensor outcomes, memo caches, spans."""
    from procs import get_json

    metrics = get_json(port, "/metrics")
    traces = get_json(port, "/v1/traces?limit=1")
    if ctx.workload == "fleet":
        sections = list(metrics["workers"].values())
        buffers = list(traces["workers"].values()) + [traces["router"]]
    else:
        sections = [metrics]
        buffers = [traces["buffer"]]
    out = {
        "tensor_hit": 0.0, "tensor_interp": 0.0, "tensor_fallback": 0.0,
        "cache_hits": 0.0, "cache_misses": 0.0, "spans": 0.0,
        "dropped": 0.0,
    }
    for section in sections:
        tensor = section["tensorstore"]
        out["tensor_hit"] += tensor["hit"]
        out["tensor_interp"] += tensor["interp"]
        out["tensor_fallback"] += tensor["fallback"]
        out["cache_hits"] += section["perf_cache"]["hits"]
        out["cache_misses"] += section["perf_cache"]["misses"]
    for buffer in buffers:
        out["spans"] += buffer["exported"]
        out["dropped"] += buffer["dropped"]
    return out


# -- correctness -------------------------------------------------------------


def _close(a: Any, b: Any, rel: float) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            _close(a[k], b[k], rel) for k in a
        )
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(
            _close(x, y, rel) for x, y in zip(a, b)
        )
    if isinstance(a, float) and isinstance(b, float):
        return a == b or abs(a - b) <= rel * max(abs(a), abs(b))
    return a == b


def check_answers(ctx: Context, samples, out: Outcome) -> None:
    """Sampled answers must equal an in-process live ``ModelService``.

    Exact answers must be equal; interpolated ones (they carry an
    ``interpolation`` block) must agree within the store's documented
    1e-9 relative bound.
    """
    from repro.service.app import ModelService, ServiceConfig

    async def live():
        service = ModelService(ServiceConfig(profile=False))
        answers = []
        try:
            # Small concurrent chunks: stay inside the admission queue.
            for at in range(0, len(samples), 16):
                answers += await asyncio.gather(
                    *(service.handle("POST", path, body)
                      for _i, path, body, _s, _r in samples[at:at + 16])
                )
        finally:
            service.close()
        return answers

    answers = asyncio.run(live())
    interpolated = 0
    for (index, path, body, status, raw), (live_status, expected) in zip(
        samples, answers
    ):
        got = json.loads(raw)
        if status != live_status:
            out.check(False, f"request {index} {path}: status {status}, "
                             f"live {live_status}")
            continue
        if isinstance(got, dict) and "interpolation" in got:
            interpolated += 1
            got = dict(got)
            got.pop("interpolation")
            ok = _close(got, expected, INTERP_REL_BOUND)
        else:
            ok = got == expected
        out.check(ok, f"request {index} {path} {body!r}: answer differs "
                      f"from the live service")
    out.notes.append(
        f"check: {len(samples)} sampled answers compared with an "
        f"in-process live service ({interpolated} interpolated)"
    )
    out.check(len(samples) > 0, "no answers were sampled")


# -- serving workloads ------------------------------------------------------


def _host_note(out: Outcome, client_work: float, client_cpu: float,
               server_share: float) -> None:
    """Record the CPU shares; flag a run whose load generator out-worked
    the program, since then the client, not the program, set the pace.

    ``client_work`` is the load generator's own work share;
    ``client_cpu`` also counts its busy-polling, so it is about one on
    serving workloads.
    """
    out.notes.append(
        f"host: client_work_share={client_work:.3f} "
        f"client_cpu_share={client_cpu:.3f} "
        f"server_cpu_share={server_share:.3f}"
        + (" CLIENT-BOUND" if client_work > server_share else "")
    )


def _load_phase(ctx: Context, port: int, program, out: Outcome,
                record: bool):
    """Warm-up + measured closed loop; returns ``(load, counters
    before, counters after)``."""
    from client import run_load

    near = ctx.near_grid() if ctx.workload != "api-live" else []
    before = server_counters(ctx, port)
    load = run_load(port, program.tree(), ctx.workload, ctx.seed, near,
                    WARMUP_S, ctx.seconds, ctx.fresh("load"), ctx.env)
    if record:
        _host_note(
            out, load.work_s / load.wall_s, load.cpu_s / load.wall_s,
            load.program_cpu_s() / ctx.seconds,
        )
    after = server_counters(ctx, port)
    return load, before, after


def _latency_metrics(latencies_s: List[float], out: Outcome) -> None:
    """``latency_p50_ms``; the p90 is printed but has no bound: on a
    shared 2-vCPU host its median moved by up to 0.20 between two sets
    of ten runs of the same code."""
    from stats import percentile

    p50 = percentile(latencies_s, 0.50)
    p90 = percentile(latencies_s, 0.90)
    out.metrics["latency_p50_ms"] = (p50["value"] * 1e3, "ms")
    out.samples["latency_p50_ms"] = p50["samples"]
    out.notes.append(
        f"unbounded: latency_p90_ms={p90['value'] * 1e3:.4g} "
        f"({p90['samples']} samples, {p90['beyond']} beyond p90)"
    )


def _end_metrics(out: Outcome, attempted: int, failed: int,
                 memory: Tuple[float, float, int]) -> None:
    """``ok_ratio`` and memory, common to every workload."""
    anon, peak, processes = memory
    out.attempted = attempted
    out.failed = failed
    out.metrics["ok_ratio"] = (
        (attempted - failed) / attempted if attempted else 0.0, "ratio"
    )
    out.samples["ok_ratio"] = attempted
    out.metrics["anon_rss_mb"] = (anon, "MB")
    out.samples["anon_rss_mb"] = processes
    out.notes.append(
        f"unbounded: peak_rss_mb={peak:.1f} (high-water resident memory, "
        f"file-backed pages included)"
    )


def _memory(pids: List[int]) -> Tuple[float, float, int]:
    from procs import memory_mb

    return memory_mb(pids, "RssAnon"), memory_mb(pids, "VmHWM"), len(pids)


def _serving_metrics(load, out: Outcome) -> None:
    from stats import median, percentile

    kept = load.undisturbed()
    cpu_ms, used, windows = load.cpu_ms_per_op()
    out.metrics["cpu_ms_per_op"] = (cpu_ms, "ms")
    out.samples["cpu_ms_per_op"] = used
    _latency_metrics(kept, out)
    everything = percentile(load.latencies_s, 0.50)
    p99 = percentile(load.latencies_s, 0.99)
    rates = load.rates()
    steal = load.marks[-1][1] - load.marks[0][1]
    out.notes.append(
        f"host: {steal} steal ticks in the measured phase; "
        f"{len(kept)} of {load.attempted} requests and {used} of "
        f"{windows} reading windows undisturbed"
    )
    out.notes.append(
        f"unbounded: ops_per_s={median(rates):.1f} (median of "
        f"{len(rates)} 1 s windows), latency_p50_ms of every request="
        f"{everything['value'] * 1e3:.4g}, latency_p99_ms of every "
        f"request={p99['value'] * 1e3:.4g} ({p99['samples']} requests, "
        f"{p99['beyond']} beyond p99)"
    )


def run_serving(ctx: Context, out: Outcome) -> None:
    setups = []
    program = port = None
    for attempt in range(SETUPS):
        elapsed, program, port = set_up(ctx)
        setups.append(elapsed)
        if attempt < SETUPS - 1:
            program.stop()
    from stats import median

    out.metrics["setup_s"] = (median(setups), "s")
    out.samples["setup_s"] = len(setups)
    try:
        load, before, after = _load_phase(ctx, port, program, out, True)
        memory = _memory(program.tree())
    finally:
        program.stop()
    _serving_metrics(load, out)
    _end_metrics(out, load.attempted, load.failed, memory)
    if ctx.workload in ("api-ongrid", "fleet"):
        out.check(after["tensor_fallback"] == 0,
                  f"{after['tensor_fallback']:.0f} tensor fallbacks")
        out.notes.append(
            f"check: tensor fallbacks {after['tensor_fallback']:.0f}"
        )
    check_answers(ctx, load.samples, out)


def trace_serving(ctx: Context, out: Outcome) -> None:
    """Untraced then traced measured phase; per-layer metrics."""
    import ledger
    import tracing

    _elapsed, program, port = set_up(ctx)
    try:
        plain, _b, _a = _load_phase(ctx, port, program, out, True)
    finally:
        program.stop()
    trace_dir = ctx.fresh("trace")
    trace_dir.mkdir()
    _elapsed, program, port = set_up(ctx, trace_dir)
    try:
        load, before, after = _load_phase(ctx, port, program, out, False)
    finally:
        program.stop()
    spans = tracing.load_spans(trace_dir)
    counters = {k: after[k] - before[k] for k in after}
    window = (load.start_ns, load.end_ns)
    metrics = ledger.layer_metrics(
        spans, window, load.latencies_s, counters, load.attempted
    )
    out.metrics.update(metrics)
    _check_chosen_work(ctx.workload, metrics, out)
    _overhead(plain.cpu_ms_per_op()[0], load.cpu_ms_per_op()[0], out)
    transport = metrics["service.http.transport_us"][0]
    latency_us = sum(load.latencies_s) / max(1, len(load.latencies_s)) * 1e6
    out.metrics["bench.unattributed_pct"] = (
        100.0 * transport / latency_us if latency_us else 0.0, "%"
    )
    out.notes.append(
        "unattributed: on serving workloads the client latency outside "
        "every server span is the transport layer "
        f"({out.metrics['bench.unattributed_pct'][0]:.1f}% of latency)"
    )
    for layer, part in ledger.layer_shares(spans, None, [window]).items():
        out.notes.append(f"self-time share of window: {layer} {part:.3f}")
    out.attempted = load.attempted
    out.failed = load.failed
    check_answers(ctx, load.samples, out)


def _check_chosen_work(workload: str, metrics, out: Outcome) -> None:
    """The traced counts must show the work the workload was chosen for."""
    from client import CONNECTIONS

    m = {name: value for name, (value, _unit) in metrics.items()}
    if workload == "api-ongrid":
        out.check(m["perf.batch.calls"] == 0,
                  "api-ongrid measured phase ran the grid kernel")
        out.check(m["service.tensor.fallbacks"] == 0,
                  "api-ongrid measured phase fell back to live compute")
    elif workload == "api-live":
        out.check(m["perf.tensorstore.calls"] == 0,
                  "api-live ran a tensor lookup")
        out.check(m["service.batching.reach_ratio"] > 0.5,
                  "most api-live requests did not reach the batcher")
    elif workload == "fleet":
        out.check(
            m["cluster.router.calls"] >= m["service.http.calls"]
            - CONNECTIONS,
            "some fleet requests did not cross the router",
        )
    else:
        out.check(
            m["service.http.calls"] == m["service.app.calls"] == 0,
            "the campaign ran an HTTP layer",
        )
    out.notes.append(f"check: {workload} did the work it was chosen for")


def _overhead(plain_ms: float, traced_ms: float, out: Outcome) -> None:
    """Tracing overhead: the program's CPU per op, traced vs untraced."""
    out.metrics["bench.trace_overhead_pct"] = (
        100.0 * (traced_ms - plain_ms) / plain_ms if plain_ms else 0.0, "%"
    )
    out.notes.append(
        f"overhead: untraced {plain_ms:.4g} CPU ms/op, traced "
        f"{traced_ms:.4g} CPU ms/op"
    )


# -- campaign ----------------------------------------------------------------


class CampaignProcess:
    """The campaign program, driven over its stdin/stdout protocol."""

    def __init__(self, ctx: Context, trace_dir: Optional[Path] = None):
        from procs import Program
        import workloads

        work = ctx.fresh("campaign")
        work.mkdir()
        self.program = Program(
            [sys.executable, str(HERE / "launch.py"), "campaign",
             "--work-dir", str(work)],
            _traced_env(ctx, trace_dir), CHECKOUT, ctx.work / "campaign.log",
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        try:
            self.send(workloads.campaign_payload(ctx.seed))
            self.ready = self.receive()
        except BaseException:
            self.program.stop()
            raise
        self.setup_s = time.perf_counter() - self.program.started

    def send(self, message) -> None:
        self.program.proc.stdin.write(
            (json.dumps(message) + "\n").encode()
        )
        self.program.proc.stdin.flush()

    def receive(self) -> Dict[str, Any]:
        line = self.program.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"campaign process ended:\n{self.program.log_tail()}"
            )
        return json.loads(line)

    def run_pass(self) -> Dict[str, Any]:
        self.send({"cmd": "pass"})
        return self.receive()

    def close(self) -> None:
        if self.program.alive():
            self.send({"cmd": "quit"})
            self.program.proc.stdin.close()
            self.program.proc.wait(timeout=60)
        self.program.stop()


def golden_digest(bench: Dict[str, Any]) -> Optional[str]:
    """The default-seed campaign digest recorded in ``BENCHMARK.json``."""
    for workload in bench["workloads"]:
        if workload["name"] == "campaign":
            found = re.search(r"sha256 ([0-9a-f]{64})", workload["why"])
            return found.group(1) if found else None
    return None


def _campaign_phase(ctx: Context, process: CampaignProcess, out: Outcome,
                    record: bool):
    """Warm-up then measured passes; returns the measured pass records."""
    from procs import cpu_seconds, self_cpu_seconds

    for _ in range(CAMPAIGN_WARMUP_PASSES):
        out.digests.append(process.run_pass()["sha256"])
    server_cpu = cpu_seconds(process.program.tree())
    client_cpu = self_cpu_seconds()
    start = time.perf_counter()
    passes = []
    while time.perf_counter() - start < ctx.seconds:
        passes.append(process.run_pass())
    wall = time.perf_counter() - start
    if record:
        client_share = (self_cpu_seconds() - client_cpu) / wall
        _host_note(
            out, client_share, client_share,
            (cpu_seconds(process.program.tree()) - server_cpu) / wall,
        )
    out.digests.extend(p["sha256"] for p in passes)
    return passes


def _campaign_checks(ctx: Context, out: Outcome) -> None:
    distinct = sorted(set(out.digests))
    out.check(len(distinct) == 1,
              f"campaign results differ between passes: {distinct}")
    out.notes.append(
        f"check: {len(out.digests)} passes, results sha256 {distinct[0]}"
    )
    if ctx.seed == DEFAULT_SEED:
        golden = golden_digest(ctx.bench)
        out.check(golden is not None and distinct == [golden],
                  f"default-seed digest {distinct} != recorded {golden}")


def campaign_cpu_ms_per_op(passes) -> float:
    """The campaign process's CPU milliseconds per task drained."""
    return 1e3 * sum(p["cpu_s"] for p in passes) / sum(
        p["tasks"] for p in passes
    )


def run_campaign(ctx: Context, out: Outcome) -> None:
    from stats import median

    setups = []
    process = None
    for attempt in range(SETUPS):
        process = CampaignProcess(ctx)
        setups.append(process.setup_s)
        if attempt < SETUPS - 1:
            process.close()
    try:
        passes = _campaign_phase(ctx, process, out, True)
        memory = _memory(process.program.tree())
    finally:
        process.close()
    out.metrics["setup_s"] = (median(setups), "s")
    out.samples["setup_s"] = len(setups)
    tasks = sum(p["tasks"] for p in passes)
    out.metrics["cpu_ms_per_op"] = (campaign_cpu_ms_per_op(passes), "ms")
    out.samples["cpu_ms_per_op"] = tasks
    # The executor is serial, so a task's latency is the CPU time the
    # campaign process spent on it plus any time the host took the vCPU
    # away; that stolen time is the host's, not the program's, and is
    # left out, as on the serving workloads.
    _latency_metrics([t for p in passes for t in p["task_cpu_s"]], out)
    drains = [p["elapsed_s"] for p in passes]
    out.notes.append(
        f"unbounded: ops_per_s={tasks / sum(drains):.3f} (wall, "
        f"{len(drains)} passes of {passes[0]['tasks']} tasks), "
        f"median drain {median(drains) * 1e3:.1f} ms"
    )
    _end_metrics(out, tasks, sum(p["failed"] for p in passes), memory)
    _campaign_checks(ctx, out)


def trace_campaign(ctx: Context, out: Outcome) -> None:
    import ledger
    import tracing

    process = CampaignProcess(ctx)
    try:
        plain = _campaign_phase(ctx, process, out, True)
    finally:
        process.close()
    trace_dir = ctx.fresh("trace")
    trace_dir.mkdir()
    process = CampaignProcess(ctx, trace_dir)
    pid = process.program.proc.pid
    try:
        passes = _campaign_phase(ctx, process, out, False)
    finally:
        process.close()
    spans = tracing.load_spans(trace_dir)
    counters = {
        "spans": sum(p["spans"] for p in passes),
        "dropped": sum(p["dropped"] for p in passes),
        "cache_hits": sum(p["cache_hits"] for p in passes),
        "cache_misses": sum(p["cache_misses"] for p in passes),
    }
    tasks = sum(p["tasks"] for p in passes)
    # The ledger's wall time is the drain time of the traced passes as
    # the campaign process measured it; the digest and the pipe round
    # trip between passes are the benchmark's work, not the program's.
    windows = [(p["start_ns"], p["end_ns"]) for p in passes]
    metrics = ledger.layer_metrics(
        spans, (windows[0][0], windows[-1][1]), [], counters, tasks
    )
    out.metrics.update(metrics)
    _check_chosen_work(ctx.workload, metrics, out)
    _overhead(campaign_cpu_ms_per_op(plain), campaign_cpu_ms_per_op(passes),
              out)
    shares = ledger.layer_shares(spans, pid, windows)
    for layer, part in shares.items():
        out.notes.append(f"self-time share of wall: {layer} {part:.3f}")
    # CampaignRunner.run is the root span of a pass, so its self time is
    # everything else the runner does (spec expansion, manifest
    # rewrites, its own spans and profiler).  It is not counted as
    # attributed, or the check below would hold by construction.
    runner = shares.pop("campaign.run", 0.0)
    unattributed = 1.0 - sum(shares.values())
    out.metrics["bench.unattributed_pct"] = (100.0 * unattributed, "%")
    out.notes.append(
        f"unattributed: {100.0 * unattributed:.2f}% of the traced passes' "
        f"wall time: runner bookkeeping (campaign.run self time) "
        f"{100.0 * runner:.2f}%, outside every span "
        f"{100.0 * (unattributed - runner):.2f}%"
    )
    out.check(unattributed <= 0.05,
              "the named layers' self times miss more than 5% of the "
              "traced campaign's wall time")
    out.attempted = tasks
    out.failed = sum(p["failed"] for p in passes)
    _campaign_checks(ctx, out)


# -- entry point -------------------------------------------------------------


def _finite(value: float) -> float:
    """Failed requests count as infinitely slow; JSON needs a number."""
    return value if math.isfinite(value) else 1e12


def run_one(args, bench: Dict[str, Any]) -> int:
    from procs import canary_ms

    section = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in bench[section]}
    ctx = Context(args.workload, args.seed, args.seconds, bench)
    out = Outcome()
    try:
        canary_before = canary_ms()
        warm_page_cache(ctx)
        if args.workload == "campaign":
            (trace_campaign if args.trace else run_campaign)(ctx, out)
        else:
            (trace_serving if args.trace else run_serving)(ctx, out)
        canary_after = canary_ms()
    finally:
        ctx.cleanup()
    out.notes.append(
        f"host: canary_before_ms={canary_before:.1f} "
        f"canary_after_ms={canary_after:.1f}"
    )
    out.check(out.failed == 0, f"{out.failed} of {out.attempted} ops failed")
    for line in report(args.workload, wanted, out):
        print(line)
    return 0 if not out.problems else 1


def report(workload: str, wanted: Dict[str, str], out: Outcome) -> List[str]:
    """The printed lines: notes, failed checks, one line per metric
    (name, value, unit, sample count) and the final JSON result."""
    missing = sorted(set(wanted) - set(out.metrics))
    out.check(not missing, f"metrics not measured: {missing}")
    metrics = {}
    values = []
    for name, unit in wanted.items():
        if name not in out.metrics:
            continue
        value, measured_unit = out.metrics[name]
        out.check(measured_unit == unit,
                  f"{name} measured in {measured_unit}, declared {unit}")
        samples = out.samples.get(name)
        values.append(
            f"{workload} {name} = {value:.6g} {unit}"
            + (f" (n={samples})" if samples is not None else "")
        )
        metrics[name] = {"value": _finite(value), "unit": unit}
    lines = [f"# {note}" for note in out.notes]
    lines += [f"# CHECK FAILED: {problem}" for problem in out.problems]
    lines += values
    lines.append(json.dumps({
        "correct": not out.problems,
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": metrics,
    }))
    return lines


def run_all(args) -> int:
    """Every workload in turn, each in its own benchmark process."""
    worst = 0
    for workload in WORKLOADS:
        code = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=str(CHECKOUT),
        ).returncode
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    bench = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (CHECKOUT / "src" / "repro").is_dir():
        print("error: no program source at src/repro under "
              f"{CHECKOUT}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(CHECKOUT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
