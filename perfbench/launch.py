"""Start the program the way a user would, optionally with span wrappers.

Usage::

    launch.py <repro-hetsim arguments>      e.g. serve --port P
    launch.py campaign --work-dir W

Any command but ``campaign`` is handed to the package's CLI entry point
(:func:`repro.cli.main`), so ``launch.py serve ...`` is
``repro-hetsim serve ...``: the server starts through
:func:`repro.service.http.run_server`, or
:func:`repro.cluster.supervisor.run_cluster_server` with ``--workers``.
``campaign`` is the campaign process of the ``campaign`` workload; it
talks to the benchmark over stdin/stdout, one JSON object per line.

With ``PERFBENCH_TRACE_DIR`` set, the span wrappers of
:mod:`tracing` are installed when this file is *imported*.  That is
deliberate: processes started with the ``spawn`` method (fleet
workers, campaign pool workers) re-import the parent's main module as
``__mp_main__``, so they install the same wrappers before running
their target.
"""

from __future__ import annotations

import os
import sys

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import tracing

    tracing.install(os.environ["PERFBENCH_TRACE_DIR"])


def _campaign(work_dir: str) -> None:
    """The campaign process: expand the spec, then obey commands.

    Protocol (one JSON object per line): the process reads the spec
    payload, expands it, creates a fresh result store and prints
    ``{"ready": ...}``.  Then each ``{"cmd": "pass"}`` drains the spec
    once into a fresh store and prints the pass record; ``{"cmd":
    "quit"}`` ends the process.
    """
    import json
    import time
    from pathlib import Path

    from repro.campaign.runner import CampaignRunner
    from repro.campaign.spec import CampaignSpec, sha256_text
    from repro.campaign.store import ResultStore
    from repro.dse.dsl import builtin_scenario
    from repro.obs.trace import get_tracer
    from repro.perf.cache import cache_summary

    out = sys.stdout
    sys.stdout = sys.stderr  # keep the protocol stream clean
    payload = json.loads(sys.stdin.readline())
    for key in ("dse_pareto", "dse_halving"):
        for task in payload.get(key, ()):
            task["scenario_json"] = builtin_scenario(
                task["scenario_json"]
            ).canonical()
    spec = CampaignSpec.from_payload(payload)
    tasks = spec.tasks()
    root = Path(work_dir)
    passes = 0
    store = ResultStore(root / "store-0")

    def say(message) -> None:
        out.write(json.dumps(message) + "\n")
        out.flush()

    say({"ready": True, "tasks": len(tasks)})
    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] == "quit":
            break
        before_spans = get_tracer().stats()
        before_cache = cache_summary()
        # CPU time of this process at each settle: a serial task's
        # latency without the time the host took the CPU away.
        settles = [time.process_time()]
        start = time.perf_counter_ns()
        report = CampaignRunner(
            store=store, workers=1, executor="serial",
            progress=lambda *_: settles.append(time.process_time()),
        ).run(spec)
        end = time.perf_counter_ns()
        settles.append(time.process_time())
        after_spans = get_tracer().stats()
        after_cache = cache_summary()
        passes += 1
        store = ResultStore(root / f"store-{passes}")
        say(
            {
                "start_ns": start,
                "end_ns": end,
                "elapsed_s": (end - start) / 1e9,
                "cpu_s": settles[-1] - settles[0],
                "task_cpu_s": [
                    b - a for a, b in zip(settles[:-2], settles[1:-1])
                ],
                "tasks": len(report.outcomes),
                "failed": report.failed,
                "sha256": sha256_text(report.results_json()),
                "spans": after_spans["exported"]
                - before_spans["exported"],
                "dropped": after_spans["dropped"]
                - before_spans["dropped"],
                "cache_hits": after_cache["hits"] - before_cache["hits"],
                "cache_misses": after_cache["misses"]
                - before_cache["misses"],
            }
        )


def main(argv) -> int:
    if argv[:1] == ["campaign"]:
        import argparse

        parser = argparse.ArgumentParser(prog="launch.py campaign")
        parser.add_argument("--work-dir", required=True)
        _campaign(parser.parse_args(argv[1:]).work_dir)
        return 0
    from repro.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
