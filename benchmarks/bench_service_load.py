"""Async load benchmark for the serving layer.

Drives a closed-loop client fleet against a real socket server
(:func:`repro.service.http.start_server` on an ephemeral port) and
records end-to-end request latency plus the dispatcher's batching
counters.  Three phases:

* **cold** -- every request is unique, so each one must reach the
  micro-batcher.  Concurrent requests for the same design family
  coalesce into shared NumPy grid calls; this phase is what pins the
  ``batch_efficiency > 1`` acceptance number.
* **warm** -- the same request mix replayed, so the LRU answers from
  cache and the dispatcher sees no new work.

* **materialized** -- the same mix against a second service backed by
  a pre-built tensor store (``ServiceConfig.tensor_dir``).  Untraced
  keep-alive POSTs replay pre-encoded responses from the transport
  fast path, skipping parsing, dispatch, and the response cache
  entirely; this phase pins the tensor-serving speedup number.

* **cluster_1w / cluster_4w** -- the same mix through the
  :mod:`repro.cluster` router in front of 1 and 4 spawned worker
  processes.  ``scaling_x`` (4-worker over 1-worker warm throughput)
  pins the scale-out number, gated on the machine actually having the
  cores; the per-worker cache hit rate is asserted unconditionally --
  rendezvous sharding must keep every worker's hit rate at the
  single-worker level, or the router is splitting cache key ranges.

Results land in ``BENCH_service.json`` at the repo root with p50/p99
latency per phase, plus an envelope-stamped history row in
``BENCH_history.jsonl`` (benchmark ``service_load``) for
``repro-hetsim bench-check``.  The envelope carries the cluster
topology, so runs of different serving shapes never baseline each
other.  Run as a script (``python benchmarks/bench_service_load.py``)
or through pytest.
"""

from __future__ import annotations

import asyncio
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Tuple

from repro._version import __version__
from repro.cluster import ClusterConfig, Router, WorkerSupervisor
from repro.obs.history import DEFAULT_HISTORY_NAME, record_benchmark
from repro.obs.metrics import MetricsRegistry
from repro.perf.tensorstore import build_tensor_store
from repro.service.app import ModelService, ServiceConfig
from repro.service.http import start_server
from repro.service.metrics import metrics_payload

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_service.json"
HISTORY_PATH = REPO_ROOT / DEFAULT_HISTORY_NAME
BENCHMARK_NAME = "service_load"

#: Worker processes in the scale-out phase.
CLUSTER_WORKERS = 4
#: Cores needed before the >=3x scaling assertion is meaningful: the
#: 4 workers plus the router and the client loop must not be fighting
#: for the same core (the CI container has exactly one).
SCALING_GATE_CPUS = 6
#: Warm-phase throughput at 4 workers must reach this multiple of the
#: 1-worker cluster run (only asserted past the CPU gate).
SCALING_TARGET_X = 3.0


def _record(payload: dict) -> None:
    """Write the snapshot and its joinable history row (one envelope)."""
    record_benchmark(
        payload, benchmark=BENCHMARK_NAME, snapshot_path=OUTPUT_PATH,
        history_path=HISTORY_PATH, timestamp=time.time(),
        topology=payload.get("cluster", {}).get("topology"),
    )

#: Concurrent closed-loop clients.
CLIENTS = 16
#: The request mix: every roadmap node for three design families, three
#: endpoints.  54 unique requests; each client walks a rotated view so
#: compatible requests can land in the same event-loop tick.
NODES = (40, 32, 22, 16, 11)
DESIGNS = ("ASIC", "GTX480", "SymCMP")
WORKLOAD, F = "mmm", 0.99


def _request_mix() -> List[Tuple[str, dict]]:
    mix: List[Tuple[str, dict]] = []
    for design in DESIGNS:
        for nm in NODES:
            mix.append(
                (
                    "/v1/speedup",
                    {"workload": WORKLOAD, "f": F, "design": design,
                     "node_nm": nm},
                )
            )
        mix.append(
            ("/v1/sweep", {"workload": WORKLOAD, "f": F, "design": design})
        )
    for nm in NODES:
        mix.append(
            ("/v1/optimize", {"workload": WORKLOAD, "f": F, "node_nm": nm})
        )
    return mix


def _percentile(samples: List[float], q: float) -> float:
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered))))
    return ordered[rank]


def _latency_summary(samples: List[float]) -> dict:
    return {
        "requests": len(samples),
        "mean_ms": 1e3 * sum(samples) / len(samples),
        "p50_ms": 1e3 * _percentile(samples, 0.50),
        "p99_ms": 1e3 * _percentile(samples, 0.99),
        "max_ms": 1e3 * max(samples),
    }


async def _client(
    port: int, jobs: List[Tuple[str, dict]], latencies: List[float]
) -> None:
    """One keep-alive connection issuing its jobs back-to-back."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        for path, body in jobs:
            payload = json.dumps(body).encode()
            head = (
                f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n"
            )
            start = time.perf_counter()
            writer.write(head.encode() + payload)
            await writer.drain()
            status_line = await reader.readline()
            status = int(status_line.split()[1])
            length = 0
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode().partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            await reader.readexactly(length)
            latencies.append(time.perf_counter() - start)
            assert status == 200, f"{path} -> {status}"
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _run_phase(port: int, mix: List[Tuple[str, dict]]) -> dict:
    """All clients sweep the mix concurrently (rotated per client)."""
    latencies: List[float] = []
    start = time.perf_counter()
    await asyncio.gather(
        *(
            _client(
                port,
                mix[i % len(mix):] + mix[:i % len(mix)],
                latencies,
            )
            for i in range(CLIENTS)
        )
    )
    wall = time.perf_counter() - start
    summary = _latency_summary(latencies)
    summary["wall_s"] = wall
    summary["throughput_rps"] = len(latencies) / wall
    return summary


async def _run_materialized_phase(
    mix: List[Tuple[str, dict]], tensor_dir: str
) -> Tuple[dict, dict]:
    """The same mix against a tensor-backed service.

    One priming sweep populates the transport fast path's byte cache
    (mirroring the cold sweep the live service gets before its warm
    phase); the measured sweep then replays pre-encoded responses.
    Returns ``(phase summary, tensorstore counters)``.
    """
    service = ModelService(
        ServiceConfig(max_inflight=16, queue_depth=512,
                      tensor_dir=tensor_dir)
    )
    assert service.fastpath is not None, "tensor store failed to load"
    server = await start_server(service, port=0)
    port = server.sockets[0].getsockname()[1]
    try:
        await _run_phase(port, mix)  # prime the byte cache
        materialized = await _run_phase(port, mix)
        service._drain_fastpath()
        counters = metrics_payload(service.registry)["tensorstore"]
    finally:
        server.close()
        await server.wait_closed()
        service.close()
    return materialized, counters


async def _fetch_json(port: int, path: str) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: 0\r\nConnection: close\r\n\r\n".encode()
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    _head, _, body = raw.partition(b"\r\n\r\n")
    return json.loads(body)


def _warm_hit_rate(cold: dict, final: dict):
    """Hit rate over the warm sweep only (counter delta between
    scrapes); None for a worker that saw no warm traffic at all."""
    hits = final.get("hits", 0) - cold.get("hits", 0)
    misses = final.get("misses", 0) - cold.get("misses", 0)
    total = hits + misses
    return hits / total if total else None


async def _run_cluster_phase(
    workers: int, mix: List[Tuple[str, dict]]
) -> dict:
    """Cold + warm sweeps through the router over ``workers`` workers."""
    config = ClusterConfig(
        workers=workers,
        service=ServiceConfig(max_inflight=16, queue_depth=512),
        host="127.0.0.1",
        port=0,
    )
    # Private registries: the bench boots several fleets in one
    # process and their callback gauges must not collide.
    supervisor = WorkerSupervisor(config, registry=MetricsRegistry())
    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, supervisor.start)
    router = Router(config, supervisor)
    stop = asyncio.Event()
    ready = asyncio.Event()
    serve = asyncio.ensure_future(router.serve_until(stop, ready=ready))
    await ready.wait()
    try:
        cold = await _run_phase(router.bound_port, mix)
        after_cold = await _fetch_json(router.bound_port, "/metrics")
        warm = await _run_phase(router.bound_port, mix)
        final = await _fetch_json(router.bound_port, "/metrics")
    finally:
        stop.set()
        await serve
        await loop.run_in_executor(None, supervisor.stop)
    per_worker_cache = {
        name: payload["cache"]
        for name, payload in final["workers"].items()
    }
    # Hit rate over the *warm* sweep: pure repeat traffic, so a
    # locality-preserving router yields ~1.0 on every worker that
    # serves a shard, regardless of how the mix split across shards.
    warm_rates = {
        name: _warm_hit_rate(
            after_cold["workers"][name]["cache"], cache
        )
        for name, cache in sorted(per_worker_cache.items())
        if name in after_cold["workers"]
    }
    return {
        "topology": config.topology(),
        "cold": cold,
        "warm": warm,
        "per_worker_cache": per_worker_cache,
        "per_worker_warm_hit_rate": {
            name: rate
            for name, rate in warm_rates.items()
            if rate is not None
        },
    }


async def _run_load() -> dict:
    service = ModelService(ServiceConfig(max_inflight=16, queue_depth=512))
    server = await start_server(service, port=0)
    port = server.sockets[0].getsockname()[1]
    mix = _request_mix()
    try:
        cold = await _run_phase(port, mix)
        after_cold = metrics_payload(service.registry)
        warm = await _run_phase(port, mix)
        final = metrics_payload(service.registry)
    finally:
        server.close()
        await server.wait_closed()
        service.close()

    with tempfile.TemporaryDirectory(prefix="bench-tensors-") as tdir:
        build_tensor_store(tdir, executor="thread")
        materialized, tensor_counters = await _run_materialized_phase(
            mix, tdir
        )

    single = await _run_cluster_phase(1, mix)
    multi = await _run_cluster_phase(CLUSTER_WORKERS, mix)
    scaling_x = (
        multi["warm"]["throughput_rps"] / single["warm"]["throughput_rps"]
    )

    batching = after_cold["batching"]
    return {
        "schema_version": 1,
        "model_version": __version__,
        "benchmark": "serving-layer closed-loop load",
        "clients": CLIENTS,
        "unique_requests": len(mix),
        "phases": {
            "cold": cold,
            "warm": warm,
            "materialized": materialized,
            "cluster_1w": single["warm"],
            "cluster_4w": multi["warm"],
        },
        "cluster": {
            "topology": multi["topology"],
            "scaling_x": scaling_x,
            "scaling_gate_cpus": SCALING_GATE_CPUS,
            "single_worker_hit_rate": single[
                "per_worker_warm_hit_rate"
            ]["w1"],
            "workers_1": single,
            "workers_4": multi,
        },
        "tensorstore": tensor_counters,
        "batching": {
            "dispatches": batching["dispatches"],
            "items": batching["items"],
            "max_batch": batching["max_batch"],
            "efficiency": batching["efficiency"],
        },
        "cache": final["cache"],
        "config": {
            "max_inflight": service.config.max_inflight,
        },
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "regenerate": "python benchmarks/bench_service_load.py",
    }


def run_benchmark() -> dict:
    return asyncio.run(_run_load())


def test_service_load():
    """Coalescing must actually happen under concurrent load, the
    warm (fully cached) phase must be faster than the cold one, and
    the tensor-materialized phase must beat them both."""
    payload = run_benchmark()
    _record(payload)
    efficiency = payload["batching"]["efficiency"]
    assert efficiency is not None and efficiency > 1, (
        f"dispatcher never coalesced: {payload['batching']}"
    )
    phases = payload["phases"]
    assert phases["warm"]["p50_ms"] <= phases["cold"]["p50_ms"]
    assert phases["materialized"]["p50_ms"] <= phases["warm"]["p50_ms"], (
        f"tensor serving slower than the LRU path: {phases}"
    )
    counters = payload["tensorstore"]
    assert counters["hit"] > 0 and counters["fallback"] == 0, (
        f"materialized phase fell back to live compute: {counters}"
    )
    cluster = payload["cluster"]
    # Sharding must not shred cache locality: every worker's hit rate
    # stays at the single-worker level (small epsilon for racy cold
    # misses under concurrent clients).  Asserted on every machine.
    baseline_rate = cluster["single_worker_hit_rate"]
    rates = cluster["workers_4"]["per_worker_warm_hit_rate"]
    assert rates, "no worker served warm traffic"
    for worker, rate in rates.items():
        assert rate >= baseline_rate - 0.05, (
            f"{worker} warm hit rate {rate:.3f} below single-worker "
            f"baseline {baseline_rate:.3f}"
        )
    # Throughput scaling needs real cores; on starved CI boxes the
    # number is recorded but not gated.
    if (os.cpu_count() or 0) >= SCALING_GATE_CPUS:
        assert cluster["scaling_x"] >= SCALING_TARGET_X, (
            f"4-worker scaling {cluster['scaling_x']:.2f}x < "
            f"{SCALING_TARGET_X}x"
        )


def main() -> int:
    payload = run_benchmark()
    _record(payload)
    for name, phase in payload["phases"].items():
        print(
            f"  {name:<5}: {phase['requests']} requests, "
            f"p50 {phase['p50_ms']:.2f} ms, "
            f"p99 {phase['p99_ms']:.2f} ms, "
            f"{phase['throughput_rps']:.0f} req/s"
        )
    batching = payload["batching"]
    print(
        f"  batching: {batching['items']} evaluations in "
        f"{batching['dispatches']} dispatches "
        f"(efficiency {batching['efficiency']:.2f}x, "
        f"max batch {batching['max_batch']})"
    )
    phases = payload["phases"]
    ratio = phases["warm"]["p50_ms"] / phases["materialized"]["p50_ms"]
    counters = payload["tensorstore"]
    print(
        f"  tensorstore: {counters['hit']} hits, "
        f"{counters['interp']} interp, "
        f"{counters['fallback']} fallbacks; materialized p50 "
        f"{ratio:.1f}x faster than warm"
    )
    cluster = payload["cluster"]
    gated = (os.cpu_count() or 0) >= SCALING_GATE_CPUS
    gate_note = "gated" if gated else f"recorded only: {os.cpu_count()} cpus"
    rates = " ".join(
        f"{name}={rate:.2f}"
        for name, rate in sorted(
            cluster["workers_4"]["per_worker_warm_hit_rate"].items()
        )
    )
    print(
        f"  cluster: {cluster['topology']['workers']} workers, "
        f"scaling {cluster['scaling_x']:.2f}x over 1 worker "
        f"({gate_note}), per-worker warm hit rates {rates}"
    )
    print(f"wrote {OUTPUT_PATH}")
    baseline_rate = cluster["single_worker_hit_rate"]
    for worker, rate in (
        cluster["workers_4"]["per_worker_warm_hit_rate"].items()
    ):
        if rate < baseline_rate - 0.05:
            print(
                f"FAIL: {worker} warm hit rate {rate:.3f} below "
                f"single-worker {baseline_rate:.3f}",
                file=sys.stderr,
            )
            return 1
    if gated and cluster["scaling_x"] < SCALING_TARGET_X:
        print(
            f"FAIL: cluster scaling {cluster['scaling_x']:.2f}x < "
            f"{SCALING_TARGET_X}x",
            file=sys.stderr,
        )
        return 1
    if not batching["efficiency"] or batching["efficiency"] <= 1:
        print("FAIL: batch efficiency <= 1", file=sys.stderr)
        return 1
    if phases["materialized"]["p50_ms"] > phases["warm"]["p50_ms"]:
        print("FAIL: materialized p50 slower than warm", file=sys.stderr)
        return 1
    print(f"PASS: batch efficiency {batching['efficiency']:.2f}x > 1")
    return 0


if __name__ == "__main__":
    sys.exit(main())
