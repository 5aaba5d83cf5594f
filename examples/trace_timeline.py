"""Trace a campaign end to end and render its span timeline.

Runs a small projection campaign (one Figure 8 panel, one Pareto
sweep, one Monte-Carlo sensitivity batch) serially with tracing on,
then draws the resulting span tree as a text timeline: indentation
shows parentage, bars show when each span ran relative to the
campaign, and queue wait is the gap between a task's submit and its
start.

This is the same instrumentation `repro-hetsim serve` and
`repro-hetsim campaign --trace-file` use; here we read the spans
straight out of the in-process ring buffer.

Run:  python examples/trace_timeline.py
"""

import tempfile

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ParetoTask,
    ResultStore,
    SensitivityTask,
)
from repro.obs.trace import get_tracer

#: Width of the timeline bar column, in characters.
BAR_WIDTH = 40


def render_timeline(spans) -> str:
    """The span tree as indented rows with proportional time bars."""
    by_parent = {}
    for span in spans:
        by_parent.setdefault(span["parent_id"], []).append(span)
    for children in by_parent.values():
        children.sort(key=lambda s: s["start_unix"])

    t0 = min(s["start_unix"] for s in spans)
    t1 = max(
        s["start_unix"] + (s["duration_ms"] or 0) / 1e3 for s in spans
    )
    scale = BAR_WIDTH / max(t1 - t0, 1e-9)

    lines = [
        f"{'span':<44} {'start':>8} {'dur':>9}  timeline",
        "-" * (44 + 1 + 8 + 1 + 9 + 2 + BAR_WIDTH),
    ]

    def walk(parent_id, depth):
        for span in by_parent.get(parent_id, []):
            start_s = span["start_unix"] - t0
            dur_ms = span["duration_ms"] or 0.0
            left = int(start_s * scale)
            width = max(1, int(dur_ms / 1e3 * scale))
            bar = " " * left + "#" * min(width, BAR_WIDTH - left)
            label = "  " * depth + span["name"]
            extra = ""
            wait = span["attributes"].get("queue_wait_ms")
            if wait is not None:
                extra = f"  (queue wait {wait:.1f}ms)"
            lines.append(
                f"{label:<44} {start_s * 1e3:7.1f}ms {dur_ms:7.1f}ms"
                f"  {bar}{extra}"
            )
            walk(span["span_id"], depth + 1)

    walk(None, 0)
    return "\n".join(lines)


def main() -> None:
    spec = CampaignSpec(
        name="timeline-demo",
        figures=("F8",),
        pareto=(ParetoTask(workload="mmm", f=0.99, node_nm=22),),
        sensitivity=(
            SensitivityTask(
                workload="mmm", f=0.99, node_nm=11, trials=25, seed=7
            ),
        ),
    )

    tracer = get_tracer()
    tracer.clear()
    with tempfile.TemporaryDirectory() as store_dir:
        runner = CampaignRunner(store=ResultStore(store_dir))
        report = runner.run(spec)

    print(
        f"campaign: {report.executed} executed, "
        f"{report.cached} cached, {report.failed} failed "
        f"in {report.elapsed_s * 1e3:.0f}ms\n"
    )
    spans = tracer.spans()
    print(render_timeline(spans))
    print(
        f"\n{len(spans)} spans; the same tree is served by "
        "GET /v1/traces and written as JSONL by --trace-file."
    )


if __name__ == "__main__":
    main()
