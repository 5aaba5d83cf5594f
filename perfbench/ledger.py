"""Per-layer metrics from one traced run.

A layer's *self time* is its span's duration minus the part of that
interval covered by its child spans (same process, same causal chain).
Serving-path layers are read over the measured phase only; set-up
layers (tensor-store build, worker start, service construction) over
the whole run.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from stats import mean, safe_ratio

MODEL_PATHS = ("/v1/speedup", "/v1/sweep", "/v1/optimize")
TASK_KINDS = ("sensitivity", "dse-pareto", "dse-halving", "materialize")


def _covered(intervals: List[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def annotate_self_times(spans: List[Dict[str, Any]]) -> None:
    """Add ``dur`` and ``self`` (ns) and child layer counts in place."""
    children: Dict[Any, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    for span in spans:
        kids = children.get(span["id"], ())
        span["dur"] = span["end"] - span["start"]
        span["self"] = span["dur"] - _covered(
            [(k["start"], k["end"]) for k in kids],
            span["start"], span["end"],
        )
        span["kids"] = [k["layer"] for k in kids]


def _ms(ns: float) -> float:
    return ns / 1e6


def _us(ns: float) -> float:
    return ns / 1e3


def layer_metrics(
    spans: List[Dict[str, Any]],
    window: Tuple[int, int],
    latencies_s: Sequence[float],
    counters: Dict[str, float],
    ops: int,
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``{name: (value, unit)}``.

    ``counters`` carries the program's own counter deltas over the
    measured phase: ``tensor_hit``/``tensor_interp``/``tensor_fallback``,
    ``cache_hits``/``cache_misses`` (``repro.perf.cache``) and
    ``spans``/``dropped`` (the program's tracer).
    """
    annotate_self_times(spans)
    lo, hi = window
    measured = [s for s in spans if lo <= s["start"] <= hi]
    by_layer: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for span in measured:
        by_layer[span["layer"]].append(span)
    whole: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        whole[span["layer"]].append(span)

    out: Dict[str, Tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = (float(value), unit)

    def calls(name: str, layer_spans) -> None:
        put(f"{name}.calls", len(layer_spans), "count")

    # -- transport: client latency outside the outermost server layer -----
    router = [
        s for s in by_layer["cluster.router"]
        if s["attrs"].get("path") in MODEL_PATHS
    ]
    fast = by_layer["service.fastpath"]
    app = [
        s for s in by_layer["service.app"]
        if s["attrs"].get("path") in MODEL_PATHS
    ]
    outer = router if router else fast + [s for s in app if not s["parent"]]
    requests = len(latencies_s)
    latency_total = sum(x for x in latencies_s if x != float("inf")) * 1e9
    server_total = sum(s["dur"] for s in outer)
    transport = safe_ratio(latency_total - server_total, requests)
    put("service.http.transport_us", _us(transport), "us")
    put("service.http.calls", requests, "count")

    # -- transport byte cache ----------------------------------------------
    eligible = [s for s in fast if s["attrs"].get("eligible")]
    builds = [s for s in fast if "service.tensor" in s["kids"]]
    replays = [
        s for s in eligible
        if s["attrs"].get("answered") and "service.tensor" not in s["kids"]
    ]
    put("service.fastpath.replay_ratio",
        safe_ratio(len(replays), len(eligible)), "ratio")
    put("service.fastpath.build_us",
        _us(mean([s["dur"] for s in builds])), "us")
    calls("service.fastpath", fast)

    # -- tensor serving + store lookup -------------------------------------
    tensor = by_layer["service.tensor"]
    lookups = by_layer["perf.tensorstore"]
    put("service.tensor.self_us", _us(mean([s["self"] for s in tensor])),
        "us")
    put("perf.tensorstore.lookup_us",
        _us(mean([s["dur"] for s in lookups])), "us")
    answered = sum(
        counters.get(k, 0)
        for k in ("tensor_hit", "tensor_interp", "tensor_fallback")
    )
    put("service.tensor.fallback_ratio",
        safe_ratio(counters.get("tensor_fallback", 0), answered), "ratio")
    put("service.tensor.fallbacks", counters.get("tensor_fallback", 0),
        "count")
    calls("service.tensor", tensor)
    calls("perf.tensorstore", lookups)

    # -- application layer -------------------------------------------------
    put("service.app.self_us", _us(mean([s["self"] for s in app])), "us")
    calls("service.app", app)
    put("service.app.failed",
        sum(1 for s in app
            if s["failed"] or (s["attrs"].get("status") or 200) >= 400),
        "count")

    # -- response LRU ------------------------------------------------------
    respcache = by_layer["service.respcache"]
    put("service.respcache.hit_ratio",
        safe_ratio(sum(1 for s in respcache if s["attrs"].get("hit")),
                   len(respcache)), "ratio")
    calls("service.respcache", respcache)

    # -- micro-batcher and grid kernel --------------------------------------
    batching = by_layer["service.batching"]
    grid = by_layer["perf.batch"]
    batch_pids = {s["pid"] for s in batching}
    served_grid = [s for s in grid if s["pid"] in batch_pids]
    items = sum(s["attrs"].get("budgets", 0) for s in served_grid)
    grid_wait = safe_ratio(
        sum(s["dur"] * s["attrs"].get("budgets", 0) for s in served_grid),
        items,
    )
    put("service.batching.wait_us",
        _us(max(0.0, mean([s["dur"] for s in batching]) - grid_wait))
        if batching else 0.0, "us")
    put("service.batching.items_per_dispatch",
        safe_ratio(items, len(served_grid)), "count")
    calls("service.batching", batching)
    put("service.batching.reach_ratio",
        safe_ratio(sum(1 for s in app if "service.batching" in s["kids"]),
                   len(app)), "ratio")
    put("service.batching.failed", sum(1 for s in batching if s["failed"]),
        "count")
    put("perf.batch.self_us", _us(mean([s["self"] for s in grid])), "us")
    put("perf.batch.budgets_per_call",
        safe_ratio(sum(s["attrs"].get("budgets", 0) for s in grid),
                   len(grid)), "count")
    calls("perf.batch", grid)

    # -- model-layer memo caches (the program's own counters) --------------
    lookups_total = counters.get("cache_hits", 0) + counters.get(
        "cache_misses", 0
    )
    put("perf.cache.hit_ratio",
        safe_ratio(counters.get("cache_hits", 0), lookups_total), "ratio")
    put("perf.cache.calls", lookups_total, "count")

    # -- Monte-Carlo sensitivity -------------------------------------------
    sens = by_layer["projection.sensitivity"]
    put("projection.sensitivity.self_ms",
        _ms(mean([s["self"] for s in sens])), "ms")
    put("projection.sensitivity.kernel_calls",
        mean([s["kids"].count("perf.batch") for s in sens]), "count")
    calls("projection.sensitivity", sens)

    # -- DSE ---------------------------------------------------------------
    evaluate = by_layer["dse.engine"]
    halving = by_layer["dse.halving"]
    put("dse.engine.evaluate_us", _us(mean([s["dur"] for s in evaluate])),
        "us")
    calls("dse.engine", evaluate)
    put("dse.halving.self_ms", _ms(mean([s["self"] for s in halving])),
        "ms")
    put("dse.halving.full_eval_ratio",
        safe_ratio(sum(s["attrs"].get("full", 0) for s in halving),
                   sum(s["attrs"].get("configs", 0) for s in halving)),
        "ratio")
    calls("dse.halving", halving)

    # -- campaign runner and store (set-up builds count here too) ----------
    execute = whole["campaign.execute"]
    put("campaign.execute_ms", _ms(mean([s["dur"] for s in execute])), "ms")
    for kind in TASK_KINDS:
        put(f"campaign.execute_ms.{kind}",
            _ms(mean([s["dur"] for s in execute
                      if s["attrs"].get("kind") == kind])), "ms")
    calls("campaign.execute", execute)
    put("campaign.execute.failed", sum(1 for s in execute if s["failed"]),
        "count")
    runs = whole["campaign.run"]
    put("campaign.execute.retried",
        sum(s["attrs"].get("retried", 0) for s in runs), "count")
    puts = whole["campaign.store"]
    put("campaign.store.put_ms", _ms(mean([s["dur"] for s in puts])), "ms")
    put("campaign.store.bytes",
        mean([s["attrs"].get("bytes", 0) for s in puts]), "bytes")
    calls("campaign.store", puts)
    # CampaignRunner.run's self time per settled task: everything the
    # runner does outside execute_task and ResultStore.put (spec
    # expansion, manifest rewrites, its own spans and profiler).
    settled = sum(s["attrs"].get("tasks", 0) for s in runs)
    put("campaign.settle_other_ms",
        _ms(safe_ratio(sum(s["self"] for s in runs), settled)), "ms")

    # -- router ------------------------------------------------------------
    worker_by_rid = {
        s["attrs"].get("rid"): s for s in app if s["attrs"].get("rid")
    }
    matched = [
        (s, worker_by_rid[s["attrs"]["tid"]])
        for s in router
        if s["attrs"].get("tid") in worker_by_rid
    ]
    put("cluster.router.self_us",
        _us(mean([r["dur"] - w["dur"] for r, w in matched])), "us")
    put("cluster.router.upstream_us",
        _us(mean([w["dur"] for _r, w in matched])), "us")
    calls("cluster.router", router)
    put("cluster.router.failed",
        sum(1 for s in router
            if s["failed"] or (s["attrs"].get("status") or 200) >= 500),
        "count")
    start = whole["cluster.supervisor"]
    put("cluster.supervisor.start_s", mean([s["dur"] for s in start]) / 1e9,
        "s")
    put("service.boot_s",
        mean([s["dur"] for s in whole["service.boot"]]) / 1e9, "s")

    # -- the program's own tracer ------------------------------------------
    put("obs.trace.spans_per_op", safe_ratio(counters.get("spans", 0), ops),
        "count")
    put("obs.trace.dropped_per_op",
        safe_ratio(counters.get("dropped", 0), ops), "count")
    return out


def layer_shares(
    spans: List[Dict[str, Any]],
    pid: Optional[int],
    windows: Sequence[Tuple[int, int]],
) -> Dict[str, float]:
    """Each layer's summed self time as a share of the ``windows``."""
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        if (pid is None or span["pid"] == pid) and any(
            lo <= span["start"] <= hi for lo, hi in windows
        ):
            totals[span["layer"]] += span["self"]
    wall = sum(hi - lo for lo, hi in windows)
    return {layer: safe_ratio(t, wall) for layer, t in sorted(totals.items())}
