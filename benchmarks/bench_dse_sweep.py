"""Wall-clock benchmark: the DSE sweep on the grid kernel vs its oracle.

Expands the 1000-config acceptance space (5 chips x 4 f x 5 nodes x
5 area scales x 2 power scales) from the ``baseline`` DSL scenario
and reduces it to the speedup/area/power Pareto front three ways:

* ``oracle``     -- the scalar reference: ``evaluate_config`` (one
  full r-sweep) per config, then ``pareto_front``.
* ``exhaustive`` -- ``exhaustive_sweep``: one ``optimize_batch``
  grid call per run of configs sharing ``(chip, f)``.
* ``halving``    -- successive halving over equivalence classes with
  sound dominance pruning.

The sweep must (a) return the oracle's front point for point and
(b) beat the oracle by at least ``SWEEP_SPEEDUP_FLOOR``, set below
the lowest ratio of the runs recorded when the sweep moved onto the
kernel (6.0-6.7x in five runs on a 2-vCPU host).  Halving must still
(c) return the same front and (d) fully evaluate at most 25% of the
configs (``full_eval_fraction``).  ``halving_speedup`` (exhaustive
over halving time) is recorded without a bound: with the sweep on the
kernel, halving is the slower search (0.48-0.56x in the same runs).

Results land in ``BENCH_dse.json`` at the repo root, plus an
envelope-stamped history row in ``BENCH_history.jsonl`` (benchmark
``dse_sweep``) for ``repro-hetsim bench-check``.

Run as a script (``python benchmarks/bench_dse_sweep.py``) or
through pytest (``pytest benchmarks/bench_dse_sweep.py``).
"""

from __future__ import annotations

import os
import platform
import sys
import time
from pathlib import Path

from repro._version import __version__
from repro.dse.dsl import builtin_scenario
from repro.dse.engine import (
    evaluate_config,
    exhaustive_sweep,
    expand_configs,
)
from repro.dse.front import pareto_front
from repro.dse.halving import successive_halving
from repro.obs.history import DEFAULT_HISTORY_NAME, record_benchmark
from repro.perf.cache import clear_caches

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_dse.json"
HISTORY_PATH = REPO_ROOT / DEFAULT_HISTORY_NAME
BENCHMARK_NAME = "dse_sweep"
REPEATS = 3
#: Oracle time over sweep time must exceed this.
SWEEP_SPEEDUP_FLOOR = 4.0

SCENARIO = builtin_scenario("baseline")
AREA_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
POWER_GRID = (0.5, 1.0)


def _record(payload: dict) -> None:
    """Write the snapshot and its joinable history row (one envelope)."""
    record_benchmark(
        payload, benchmark=BENCHMARK_NAME, snapshot_path=OUTPUT_PATH,
        history_path=HISTORY_PATH, timestamp=time.time(),
    )


def _timed(fn):
    """``(result, seconds)`` of one call from cold caches."""
    clear_caches()
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _oracle_front(configs):
    points = [evaluate_config(config) for config in configs]
    return pareto_front([point for point in points if point is not None])


def _time_once() -> dict:
    """One oracle, one sweep and one halving pass, each from cold
    caches."""
    configs = expand_configs(SCENARIO, AREA_GRID, POWER_GRID)
    oracle_front, oracle_s = _timed(lambda: _oracle_front(configs))
    sweep_front, exhaustive_s = _timed(
        lambda: pareto_front(exhaustive_sweep(configs)[0])
    )
    result, halving_s = _timed(
        lambda: successive_halving(
            SCENARIO,
            area_scale_grid=AREA_GRID,
            power_scale_grid=POWER_GRID,
        )
    )
    assert result.n_configs == len(configs)
    return {
        "oracle_s": oracle_s,
        "exhaustive_s": exhaustive_s,
        "halving_s": halving_s,
        "n_configs": len(configs),
        "front_size": len(sweep_front),
        "sweep_matches_oracle": sweep_front == oracle_front,
        "fronts_identical": list(result.front) == sweep_front,
        "full_evaluations": result.full_evaluations,
        "rung_evaluations": result.rung_evaluations,
        "full_eval_fraction": result.full_eval_fraction,
    }


def run_benchmark() -> dict:
    """Best-of-N oracle, sweep and halving timings on the 1000-config
    space."""
    times = {"oracle": [], "exhaustive": [], "halving": []}
    runs = []
    for _ in range(REPEATS):
        runs.append(_time_once())
        for name, samples in times.items():
            samples.append(runs[-1][f"{name}_s"])
    last = runs[-1]
    best = {name: min(samples) for name, samples in times.items()}
    return {
        "schema_version": 1,
        "model_version": __version__,
        "benchmark": "dse sweep on the grid kernel vs its scalar oracle",
        "scenario": SCENARIO.name,
        "n_configs": last["n_configs"],
        "front_size": last["front_size"],
        "sweep_matches_oracle": all(
            run["sweep_matches_oracle"] for run in runs
        ),
        "fronts_identical": all(run["fronts_identical"] for run in runs),
        "full_evaluations": last["full_evaluations"],
        "rung_evaluations": last["rung_evaluations"],
        "full_eval_fraction": last["full_eval_fraction"],
        "repeats": REPEATS,
        **{
            name: {"best_s": best[name], "times_s": samples}
            for name, samples in times.items()
        },
        "sweep_speedup": best["oracle"] / best["exhaustive"],
        "required_speedup": SWEEP_SPEEDUP_FLOOR,
        "halving_speedup": best["exhaustive"] / best["halving"],
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "regenerate": "python benchmarks/bench_dse_sweep.py",
    }


def failures(payload: dict) -> list:
    """Every gate the payload misses, as messages."""
    problems = []
    if not payload["sweep_matches_oracle"]:
        problems.append("sweep front != scalar oracle front")
    if payload["sweep_speedup"] <= SWEEP_SPEEDUP_FLOOR:
        problems.append(
            f"sweep only {payload['sweep_speedup']:.2f}x faster than "
            f"the scalar oracle (floor: {SWEEP_SPEEDUP_FLOOR}x)"
        )
    if not payload["fronts_identical"]:
        problems.append("halving front != exhaustive front")
    if payload["full_eval_fraction"] > 0.25:
        problems.append(
            f"halving fully evaluated "
            f"{payload['full_eval_fraction']:.1%} of the space "
            f"(budget: 25%)"
        )
    return problems


def test_sweep_is_exact_and_beats_its_oracle():
    """Oracle front, floor met; halving front equal, <= 25% full."""
    payload = run_benchmark()
    _record(payload)
    problems = failures(payload)
    assert not problems, problems


def main() -> int:
    payload = run_benchmark()
    _record(payload)
    print(
        f"dse: {payload['n_configs']} configs, front of "
        f"{payload['front_size']}, best of {REPEATS}"
    )
    for name in ("oracle", "exhaustive", "halving"):
        print(f"  {name:<11}: {payload[name]['best_s'] * 1000:8.1f} ms")
    print(
        f"  sweep: {payload['sweep_speedup']:.2f}x faster than the "
        f"oracle (floor {SWEEP_SPEEDUP_FLOOR}x)"
    )
    print(
        f"  halving: {payload['full_evaluations']} full + "
        f"{payload['rung_evaluations']} rung evals "
        f"({payload['full_eval_fraction']:.1%} of exhaustive), "
        f"{payload['halving_speedup']:.2f}x the sweep's speed"
    )
    print(f"wrote {OUTPUT_PATH}")
    problems = failures(payload)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
