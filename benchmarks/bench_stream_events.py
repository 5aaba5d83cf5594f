"""Streaming overhead benchmark for the telemetry plane.

Runs the same 80-task campaign (three projection figures plus 70
sensitivity batches) two ways, interleaved five times each:

* **quiet** -- a plain :class:`~repro.campaign.jobs.JobManager` with
  no event bus attached: the pre-telemetry baseline.
* **streamed** -- the full plane: an :class:`~repro.obs.stream
  .EventBus` wired into the manager (durable sink into the
  ResultStore event log included) with a live SSE consumer tailing
  the job's stream from cursor 0 while it runs, exactly as
  ``repro-hetsim watch`` would.

The acceptance number is ``overhead_pct`` -- the best streamed wall
time over the best quiet wall time -- which must stay **under 5%**:
publishing one canonical line per lifecycle event and polling a
bounded in-memory log must remain invisible next to the model work
itself.  Best-of-N (after one discarded warmup run) is the right
comparison for a wall-clock ratio: scheduler and allocator noise only
ever adds time, so the minima are the closest approximations of the
two true costs.  Each run uses a fresh store so result caching never
contaminates the comparison.

Results land in ``BENCH_stream.json`` plus an envelope-stamped row in
``BENCH_history.jsonl`` (benchmark ``stream_events``) so
``repro-hetsim bench-check`` gates regressions in the overhead the
same way it gates throughput numbers.  Run as a script or through
pytest.
"""

from __future__ import annotations

import asyncio
import tempfile
import threading
import time
from pathlib import Path
from typing import Optional, Tuple

from repro._version import __version__
from repro.campaign.jobs import JobManager
from repro.campaign.spec import CampaignSpec, SensitivityTask
from repro.campaign.store import ResultStore
from repro.obs.history import DEFAULT_HISTORY_NAME, record_benchmark
from repro.obs.stream import EventBus
from repro.service.events import EventStreamResponse

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_stream.json"
HISTORY_PATH = REPO_ROOT / DEFAULT_HISTORY_NAME
BENCHMARK_NAME = "stream_events"

#: Interleaved repetitions per mode; best-of damps scheduler noise.
REPETITIONS = 5

#: Streamed wall time over quiet wall time, as a percentage.
OVERHEAD_BUDGET_PCT = 5.0

#: Sensitivity batches and trials per batch: sized so one quiet
#: campaign runs seconds, not milliseconds -- the fixed costs of
#: thread spin-up would otherwise dominate the ratio being measured.
#: On a 2-vCPU host one batch of 2,000 trials costs ~20-25 ms of model
#: work and ~10 ms to store its 252 KB result, so the campaign grows by
#: batches (the store's share stays put) rather than by trials; 70
#: batches keep the quiet run above 2 s there even at the host's
#: fastest (2.6-3.4 s typical).
TRIALS = 2000
SEEDS = range(1, 15)

SPEC = CampaignSpec(
    figures=("F6", "F7", "F8"),
    sensitivity=tuple(
        SensitivityTask(
            workload="mmm", f=0.99, node_nm=nm, trials=TRIALS, seed=seed
        )
        for nm in (40, 32, 22, 16, 11)
        for seed in SEEDS
    ),
)


def _tail(bus: EventBus, job_id: str, counts: dict) -> None:
    """Consume the job's SSE frames live, like a connected watcher."""

    async def consume() -> None:
        response = EventStreamResponse(bus, job_id, cursor=0)
        async for frame in response.frames():
            counts["frames"] = counts.get("frames", 0) + 1

    asyncio.run(consume())


def _run_campaign(streamed: bool) -> Tuple[float, int]:
    """One fresh-store campaign; returns (wall_s, frames_delivered)."""
    store = ResultStore(tempfile.mkdtemp(prefix="bench-stream-"))
    bus: Optional[EventBus] = EventBus() if streamed else None
    manager = JobManager(store=store, events=bus)
    counts: dict = {}
    start = time.perf_counter()
    record = manager.submit(SPEC)
    tail_thread = None
    if streamed:
        tail_thread = threading.Thread(
            target=_tail, args=(bus, record.job_id, counts), daemon=True
        )
        tail_thread.start()
    assert manager.join(timeout=300), "campaign did not settle"
    if tail_thread is not None:
        tail_thread.join(30)
    wall = time.perf_counter() - start
    payload = manager.payload(record)
    assert payload["state"] == "succeeded", payload["state"]
    assert payload["progress"]["failed"] == 0
    manager.close()
    return wall, counts.get("frames", 0)


def run_benchmark() -> dict:
    _run_campaign(streamed=False)  # warmup: imports, NumPy, pools
    quiet: list = []
    streamed: list = []
    frames = 0
    for _ in range(REPETITIONS):
        quiet.append(_run_campaign(streamed=False)[0])
        wall, delivered = _run_campaign(streamed=True)
        streamed.append(wall)
        frames = delivered
    quiet_s = min(quiet)
    streamed_s = min(streamed)
    overhead_pct = 100.0 * (streamed_s - quiet_s) / quiet_s
    payload = {
        "version": __version__,
        "spec": {
            "figures": list(SPEC.figures),
            "sensitivity_tasks": len(SPEC.sensitivity),
            "tasks": len(SPEC.tasks()),
        },
        "repetitions": REPETITIONS,
        "quiet": {
            "wall_s": quiet_s,
            "runs_s": quiet,
        },
        "streamed": {
            "wall_s": streamed_s,
            "runs_s": streamed,
            "frames_delivered": frames,
        },
        "overhead_pct": overhead_pct,
        "overhead_budget_pct": OVERHEAD_BUDGET_PCT,
    }
    record_benchmark(
        payload,
        benchmark=BENCHMARK_NAME,
        snapshot_path=OUTPUT_PATH,
        history_path=HISTORY_PATH,
        timestamp=time.time(),
    )
    return payload


def test_streaming_overhead_stays_inside_budget():
    payload = run_benchmark()
    # A tail must actually have been delivered for the comparison to
    # mean anything: every lifecycle event plus the terminal frame.
    assert payload["streamed"]["frames_delivered"] >= (
        payload["spec"]["tasks"] + 3
    )
    assert payload["overhead_pct"] < OVERHEAD_BUDGET_PCT, (
        f"streaming overhead {payload['overhead_pct']:.2f}% exceeds "
        f"the {OVERHEAD_BUDGET_PCT}% budget"
    )


if __name__ == "__main__":
    result = run_benchmark()
    print(
        f"quiet    : {result['quiet']['wall_s']:.3f} s (best of "
        f"{REPETITIONS})"
    )
    print(
        f"streamed : {result['streamed']['wall_s']:.3f} s, "
        f"{result['streamed']['frames_delivered']} frames tailed"
    )
    print(
        f"overhead : {result['overhead_pct']:+.2f}% "
        f"(budget {OVERHEAD_BUDGET_PCT}%)"
    )
    assert result["overhead_pct"] < OVERHEAD_BUDGET_PCT
    print(f"wrote {OUTPUT_PATH.name} and a {BENCHMARK_NAME} history row")
