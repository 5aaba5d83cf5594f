#!/usr/bin/env python3
"""Same-code comparison: two sets of benchmark runs of one checkout.

Run from the root of a checkout::

    python3 perfbench/compare.py --runs 10
    python3 perfbench/compare.py --runs 5 --workloads campaign,fleet

Each set runs every chosen workload ``--runs`` times, at seeds 1
upward, for ``run_seconds`` of ``BENCHMARK.json``, end-to-end metrics
only (``--trace 0``); the second set starts after the first ends.  For
every metric on every workload it prints each set's median and
quartiles, the spread (inter-quartile distance over the median), the
signed change of the second median against the first, and whether the
sets agree.  They agree when every spread is within the metric's bound
and the two medians differ by at most the bound, in either direction.
``setup_s`` is held to the median test only, as the benchmark's
acceptance rule holds it.  ``steady`` marks a spread below a third of
the bound.  Exits 1 if any pair disagrees or any run failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import quartiles  # noqa: E402

WORKLOADS = ("api-ongrid", "api-live", "fleet", "campaign")
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> Dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(CHECKOUT), capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    record = {
        "workload": workload,
        "seed": seed,
        "exit": proc.returncode,
        "wall_s": time.perf_counter() - started,
    }
    try:
        record["result"] = json.loads(lines[-1])
    except (IndexError, ValueError):
        record["result"] = None
        print(proc.stderr[-2000:], file=sys.stderr)
    return record


def summarize(records: List[Dict], bench: Dict) -> bool:
    """Print the comparison table; True when every pair agrees."""
    ok = True
    for record in records:
        result = record["result"]
        if record["exit"] != 0 or not result or not result["correct"]:
            ok = False
            print(f"FAILED run: set {record['set']} {record['workload']} "
                  f"seed {record['seed']} exit {record['exit']}")
    for workload in WORKLOADS:
        mine = [r for r in records if r["workload"] == workload
                and r["result"]]
        if not mine:
            continue
        walls = [r["wall_s"] for r in mine]
        print(f"\n== {workload}: {len(mine)} runs, "
              f"{sum(walls) / len(walls):.1f} s per run ==")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            summaries = []
            for which in range(1, SETS + 1):
                values = [
                    r["result"]["metrics"][name]["value"]
                    for r in mine
                    if r["set"] == which and name in r["result"]["metrics"]
                ]
                summaries.append(quartiles(values) if values else None)
            if None in summaries:
                continue
            first, second = summaries
            change = (second["median"] - first["median"]) / first["median"]
            agree = abs(change) <= bound and all(
                name == "setup_s" or s["spread"] <= bound for s in summaries
            )
            ok = ok and agree
            cells = "  ".join(
                f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] "
                f"spread={s['spread']:.3f} "
                + ("steady" if s["spread"] <= bound / 3 else "noisy")
                for s in summaries
            )
            print(f"  {name:<15} bound={bound:<5} {cells} "
                  f"change={change:+.3f} "
                  f"{'agree' if agree else 'DISAGREE'}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    bench = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    chosen = [w for w in args.workloads.split(",") if w]
    records = []
    for which in range(1, SETS + 1):
        for workload in chosen:
            for seed in range(1, args.runs + 1):
                record = run_once(workload, seed, bench["run_seconds"])
                record["set"] = which
                records.append(record)
                metrics = (record["result"] or {}).get("metrics", {})
                print(
                    f"set {which} {workload} seed {seed}: exit "
                    f"{record['exit']} {record['wall_s']:.1f}s "
                    + " ".join(
                        f"{k}={v['value']:.4g}" for k, v in metrics.items()
                    ),
                    flush=True,
                )
    return 0 if summarize(records, bench) else 1


if __name__ == "__main__":
    sys.exit(main())
