"""Wall-clock benchmark: scalar vs batched figure campaigns.

Times the full Figure 6-9 projection campaign (14 panels: every
(workload, f, scenario) cell behind the paper's headline figures,
expanded by :func:`repro.campaign.spec.figure_campaign` and projected
by :func:`repro.campaign.runner.project_figure`) in process, by each
method:

* ``scalar_serial`` -- the seed-faithful baseline: per-cell budget
  derivation with no memoization and the pure-Python r-sweep.
* ``batch_serial`` -- memoized budgets + the NumPy-vectorized sweep
  (:func:`repro.perf.batch.optimize_batch`).

Results land in ``BENCH_projection.json`` at the repo root, plus one
envelope-stamped history row appended to ``BENCH_history.jsonl``
(benchmark ``projection``) for the regression sentinel
(``repro-hetsim bench-check``).  The batched path must beat the scalar
baseline by at least ``REQUIRED_SPEEDUP``.

Run as a script (``python benchmarks/bench_perf_grid.py``) or through
pytest (``pytest benchmarks/bench_perf_grid.py``).  Caches are cleared
before every repetition, so no mode inherits another's warm state.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro._version import __version__
from repro.campaign.runner import project_figure
from repro.campaign.spec import figure_campaign
from repro.obs.history import DEFAULT_HISTORY_NAME, record_benchmark
from repro.obs.trace import phase_totals, reset_phase_totals
from repro.perf.cache import clear_caches

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_projection.json"
HISTORY_PATH = REPO_ROOT / DEFAULT_HISTORY_NAME
BENCHMARK_NAME = "projection"
FIGURES = ("F6", "F7", "F8", "F9")
REQUIRED_SPEEDUP = 5.0
REPEATS = 5


def _time_mode(method: str, repeats: int = REPEATS) -> dict:
    """Best-of-N wall-clock for one projection method."""
    tasks = figure_campaign(FIGURES, method)
    times = []
    phases: dict = {}
    for _ in range(repeats):
        clear_caches()
        reset_phase_totals()
        start = time.perf_counter()
        results = [project_figure(task) for task in tasks]
        elapsed = time.perf_counter() - start
        if not times or elapsed < min(times):
            # Span breakdown of the best repetition (what best_s
            # reports): nearly all of it is projection.project spans.
            phases = phase_totals()
        times.append(elapsed)
    assert len(results) == len(tasks)
    return {
        "executor": "serial",
        "method": method,
        "jobs": 1,
        "best_s": min(times),
        "mean_s": sum(times) / len(times),
        "times_s": times,
        "phases": phases,
    }


def run_benchmark() -> dict:
    """Time every mode and assemble the BENCH_projection payload."""
    panels = len(figure_campaign(FIGURES))
    modes = {
        "scalar_serial": _time_mode("scalar"),
        "batch_serial": _time_mode("batch"),
    }
    baseline = modes["scalar_serial"]["best_s"]
    speedups = {
        name: baseline / mode["best_s"]
        for name, mode in modes.items()
        if name != "scalar_serial"
    }
    best_mode = max(speedups, key=speedups.get)
    return {
        "schema_version": 2,
        "model_version": __version__,
        "benchmark": "figure 6-9 projection campaign",
        "figures": list(FIGURES),
        "panels": panels,
        "repeats": REPEATS,
        "modes": modes,
        "speedup_vs_scalar": speedups,
        "best_mode": best_mode,
        "best_speedup": speedups[best_mode],
        "required_speedup": REQUIRED_SPEEDUP,
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "regenerate": "python benchmarks/bench_perf_grid.py",
    }


def _record(payload: dict) -> None:
    """Write the snapshot and its joinable history row (one envelope)."""
    record_benchmark(
        payload, benchmark=BENCHMARK_NAME, snapshot_path=OUTPUT_PATH,
        history_path=HISTORY_PATH, timestamp=time.time(),
    )


def test_batched_campaign_speedup():
    """The batched path must beat the seed scalar path by >= 5x."""
    payload = run_benchmark()
    _record(payload)
    assert payload["best_speedup"] >= REQUIRED_SPEEDUP, (
        f"best mode {payload['best_mode']} is only "
        f"{payload['best_speedup']:.2f}x over scalar "
        f"(required: {REQUIRED_SPEEDUP}x)"
    )


def main() -> int:
    payload = run_benchmark()
    _record(payload)
    base = payload["modes"]["scalar_serial"]["best_s"]
    print(f"campaign: {payload['panels']} panels, best of {REPEATS}")
    print(f"  scalar_serial : {base * 1000:8.1f} ms  (baseline)")
    mode = payload["modes"]["batch_serial"]
    print(
        f"  batch_serial  : {mode['best_s'] * 1000:8.1f} ms  "
        f"({payload['speedup_vs_scalar']['batch_serial']:.2f}x)"
    )
    print(f"wrote {OUTPUT_PATH}")
    if payload["best_speedup"] < REQUIRED_SPEEDUP:
        print(
            f"FAIL: best speedup {payload['best_speedup']:.2f}x < "
            f"{REQUIRED_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    print(
        f"PASS: {payload['best_mode']} is "
        f"{payload['best_speedup']:.2f}x over the scalar baseline"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
