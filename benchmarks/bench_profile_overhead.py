"""Sampler overhead benchmark for the continuous profiling plane.

Runs the same projection campaign (three figure panels plus 70
sensitivity batches) two ways, interleaved:

* **quiet** -- ``CampaignRunner(profile=False)``: no sampler thread
  anywhere in the process.
* **sampled** -- the default-on profiler: the shared
  :class:`~repro.obs.prof.StackSampler` walking every thread stack at
  :data:`~repro.obs.prof.DEFAULT_HZ` for the whole campaign window,
  exactly as ``repro-hetsim campaign`` and ``serve`` run it.

The acceptance number is ``overhead_pct`` -- best sampled wall time
over best quiet wall time -- which must stay **under 2%**: continuous
profiling is only allowed on by default because walking
``sys._current_frames`` ~67 times a second is invisible next to the
model work.  Best-of-N after a warmup is the right comparison for a
wall-clock ratio (noise only adds time); each run uses a fresh store
so result caching never contaminates it.

Results land in ``BENCH_profile.json`` plus an envelope-stamped row in
``BENCH_history.jsonl`` (benchmark ``profile_overhead``) -- including
the sampled run's own folded profile artifact, so a future regression
of this very benchmark gets culprit-frame attribution from
``repro-hetsim bench-check``.  Run as a script or through pytest.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Optional, Tuple

from repro._version import __version__
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec, SensitivityTask
from repro.campaign.store import ResultStore
from repro.obs.history import DEFAULT_HISTORY_NAME, record_benchmark
from repro.obs.prof import DEFAULT_HZ, FoldedProfile

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_profile.json"
HISTORY_PATH = REPO_ROOT / DEFAULT_HISTORY_NAME
BENCHMARK_NAME = "profile_overhead"

#: Interleaved repetitions per mode; best-of damps scheduler noise.
REPETITIONS = 5

#: Sampled wall time over quiet wall time, as a percentage.  This is
#: the number that justifies default-on sampling in serve/campaign.
OVERHEAD_BUDGET_PCT = 2.0

#: Sensitivity batches and trials per batch: sized so one quiet
#: campaign runs seconds, not milliseconds -- at millisecond scale the
#: ratio would measure thread spin-up, not steady-state sampling cost.
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


def _run_campaign(
    sampled: bool,
) -> Tuple[float, Optional[FoldedProfile]]:
    """One fresh-store serial campaign; returns (wall_s, profile)."""
    store = ResultStore(tempfile.mkdtemp(prefix="bench-prof-"))
    runner = CampaignRunner(
        store=store, workers=1, executor="serial", profile=sampled
    )
    start = time.perf_counter()
    report = runner.run(SPEC)
    wall = time.perf_counter() - start
    assert report.ok, f"{report.failed} campaign task(s) failed"
    return wall, runner.last_profile


def run_benchmark() -> dict:
    _run_campaign(sampled=False)  # warmup: imports, NumPy, caches
    quiet: list = []
    sampled: list = []
    profile: Optional[FoldedProfile] = None
    for _ in range(REPETITIONS):
        quiet.append(_run_campaign(sampled=False)[0])
        wall, window = _run_campaign(sampled=True)
        sampled.append(wall)
        profile = window
    quiet_s = min(quiet)
    sampled_s = min(sampled)
    overhead_pct = 100.0 * (sampled_s - quiet_s) / quiet_s
    assert profile is not None and profile.samples > 0, (
        "the sampled runs produced no profiler samples"
    )
    payload = {
        "version": __version__,
        "spec": {
            "figures": list(SPEC.figures),
            "sensitivity_tasks": len(SPEC.sensitivity),
            "tasks": len(SPEC.tasks()),
        },
        "repetitions": REPETITIONS,
        "hz": DEFAULT_HZ,
        "quiet": {"wall_s": quiet_s, "runs_s": quiet},
        "sampled": {
            "wall_s": sampled_s,
            "runs_s": sampled,
            "samples": profile.samples,
            "stacks": len(profile.counts),
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
        profile=profile.payload(),
    )
    return payload


def test_sampler_overhead_stays_inside_budget():
    payload = run_benchmark()
    # Sampling must have actually happened for the ratio to mean
    # anything: a multi-second window at 67 Hz yields hundreds of
    # ticks.
    assert payload["sampled"]["samples"] > 50
    assert payload["overhead_pct"] < OVERHEAD_BUDGET_PCT, (
        f"sampler overhead {payload['overhead_pct']:.2f}% exceeds "
        f"the {OVERHEAD_BUDGET_PCT}% budget"
    )


if __name__ == "__main__":
    result = run_benchmark()
    print(
        f"quiet    : {result['quiet']['wall_s']:.3f} s (best of "
        f"{REPETITIONS})"
    )
    print(
        f"sampled  : {result['sampled']['wall_s']:.3f} s, "
        f"{result['sampled']['samples']} samples over "
        f"{result['sampled']['stacks']} unique stacks"
    )
    print(
        f"overhead : {result['overhead_pct']:+.2f}% "
        f"(budget {OVERHEAD_BUDGET_PCT}%)"
    )
    assert result["overhead_pct"] < OVERHEAD_BUDGET_PCT
    print(f"wrote {OUTPUT_PATH.name} and a {BENCHMARK_NAME} history row")
