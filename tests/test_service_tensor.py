"""Tensor-materialized serving: bit-identity, fallback, fast path.

A service booted with ``ServiceConfig.tensor_dir`` must be
indistinguishable from a live one on every on-grid request -- same
status, same payload, same key order (``json.dumps`` equality) --
while answering from memory-mapped tensors instead of the dispatcher.
Off-grid ``f`` on ``/v1/speedup`` may be served by harmonic
interpolation (carrying an ``interpolation`` block); sweep/optimize
require exact hits for every cell and otherwise fall back.  A store
that fails integrity checks quarantines: the service stays healthy and
every request falls back to live compute.

The transport fast path is the byte-level tier above all this:
untraced keep-alive POSTs replay pre-encoded responses and settle
their metrics through a deferred drain.
"""

import asyncio
import json
import shutil

import pytest

from repro.obs.metrics import validate_prometheus
from repro.obs.trace import get_tracer
from repro.perf.tensorstore import (
    REL_ERROR_BOUND,
    build_tensor_store,
    materialize_spec,
)
from repro.projection.designs import standard_designs
from repro.service.app import ModelService, ServiceConfig

#: Grid used by every test below; 0.45 and 0.7 are deliberately absent
#: so off-grid behaviour is exercised inside the materialized range.
F_GRID = (0.0, 0.4, 0.5, 0.9, 0.99, 0.999, 1.0)


@pytest.fixture(scope="module")
def tensor_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("serving-tensors")
    build_tensor_store(
        directory,
        spec=materialize_spec(f_grid=F_GRID),
    )
    return directory


def _run(coro):
    return asyncio.run(coro)


def _tensor_counts(service):
    """The service's tensor-store outcome counts, from its registry."""
    family = service.registry.counter("repro_tensorstore_requests_total")
    return {
        outcome: family.value(outcome=outcome)
        for outcome in ("hit", "interp", "fallback")
    }


def _live_config(**overrides):
    return ServiceConfig(**overrides)


async def _collect(service, requests):
    out = []
    for path, body in requests:
        status, payload = await service.handle(
            "POST", path, json.dumps(body).encode()
        )
        out.append((status, json.dumps(payload)))
    return out


def _differential_mix():
    """On-grid requests across all endpoints, workloads, designs."""
    requests = []
    for workload, fft_size in (("mmm", None), ("fft", 1024),
                               ("bs", None)):
        extra = {"fft_size": fft_size} if fft_size else {}
        labels = [
            d.short_label for d in standard_designs(workload, fft_size)
        ]
        for f in (0.5, 0.99):
            for design in labels:
                requests.append(
                    ("/v1/speedup",
                     {"workload": workload, "f": f, "design": design,
                      "node_nm": 22, **extra})
                )
            requests.append(
                ("/v1/sweep",
                 {"workload": workload, "f": f, "design": labels[0],
                  **extra})
            )
            for node_nm in (40, 11):
                requests.append(
                    ("/v1/optimize",
                     {"workload": workload, "f": f, "node_nm": node_nm,
                      **extra})
                )
        # r_max boundaries: prefix-argmax must hold through serving.
        for r_max in (1, 16):
            requests.append(
                ("/v1/speedup",
                 {"workload": workload, "f": 0.99, "design": labels[0],
                  "node_nm": 40, "r_max": r_max, **extra})
            )
    return requests


class TestBitIdentity:
    def test_on_grid_matches_live_service_exactly(self, tensor_dir):
        """Status and serialized payload equal for every request --
        including infeasible cells, which must fall back so the live
        path raises its exact error."""
        mix = _differential_mix()

        async def main():
            live = ModelService(_live_config())
            tensor = ModelService(_live_config(tensor_dir=tensor_dir))
            try:
                live_out = await _collect(live, mix)
                tensor_out = await _collect(tensor, mix)
                counters = _tensor_counts(tensor)
            finally:
                live.close()
                tensor.close()
            return live_out, tensor_out, counters

        live_out, tensor_out, counters = _run(main())
        assert tensor_out == live_out
        assert counters["hit"] == len(mix)
        assert counters["fallback"] == 0

    def test_healthz_reports_tensor_readiness(self, tensor_dir):
        async def main():
            service = ModelService(_live_config(tensor_dir=tensor_dir))
            try:
                return await service.handle("GET", "/healthz")
            finally:
                service.close()

        status, payload = _run(main())
        assert status == 200
        tensor = payload["tensor"]
        assert tensor["status"] == "ready"
        assert tensor["groups"] == 3
        assert tensor["f_points"] == len(F_GRID)


class TestInterpolatedServing:
    def test_speedup_interp_carries_block_and_bound(self, tensor_dir):
        body = {"workload": "mmm", "f": 0.45, "design": "ASIC",
                "node_nm": 22}

        async def main():
            live = ModelService(_live_config())
            tensor = ModelService(_live_config(tensor_dir=tensor_dir))
            try:
                _, live_payload = await live.handle(
                    "POST", "/v1/speedup", json.dumps(body).encode()
                )
                status, payload = await tensor.handle(
                    "POST", "/v1/speedup", json.dumps(body).encode()
                )
                counters = _tensor_counts(tensor)
            finally:
                live.close()
                tensor.close()
            return status, payload, live_payload, counters

        status, payload, live_payload, counters = _run(main())
        assert status == 200
        interp = payload["interpolation"]
        assert interp["kind"] == "harmonic-f"
        assert interp["f_bracket"] == [0.4, 0.5]
        assert interp["rel_error_bound"] == REL_ERROR_BOUND
        assert counters["interp"] == 1
        live_point = live_payload["point"]
        point = payload["point"]
        assert point["r"] == live_point["r"]
        assert point["n"] == live_point["n"]
        rel = abs(point["speedup"] - live_point["speedup"]) / (
            live_point["speedup"]
        )
        assert rel <= REL_ERROR_BOUND

    @pytest.mark.parametrize("path,body", (
        ("/v1/sweep", {"workload": "mmm", "f": 0.45, "design": "ASIC"}),
        ("/v1/optimize", {"workload": "mmm", "f": 0.45, "node_nm": 22}),
    ))
    def test_sweep_and_optimize_fall_back_off_grid(self, tensor_dir,
                                                   path, body):
        """Aggregate endpoints never interpolate: off-grid f falls
        back to live compute and matches it exactly."""
        async def main():
            live = ModelService(_live_config())
            tensor = ModelService(_live_config(tensor_dir=tensor_dir))
            try:
                live_out = await live.handle(
                    "POST", path, json.dumps(body).encode()
                )
                tensor_out = await tensor.handle(
                    "POST", path, json.dumps(body).encode()
                )
                counters = _tensor_counts(tensor)
            finally:
                live.close()
                tensor.close()
            return live_out, tensor_out, counters

        live_out, tensor_out, counters = _run(main())
        assert json.dumps(tensor_out) == json.dumps(live_out)
        assert counters["fallback"] == 1
        assert counters["interp"] == 0


class TestQuarantine:
    @pytest.fixture()
    def corrupt_dir(self, tensor_dir, tmp_path):
        copy = tmp_path / "corrupt"
        shutil.copytree(tensor_dir, copy)
        victim = next(copy.glob("*.f64"))
        blob = bytearray(victim.read_bytes())
        blob[0] ^= 0xFF
        victim.write_bytes(bytes(blob))
        return copy

    def test_corrupt_store_quarantines_not_crashes(self, corrupt_dir):
        body = {"workload": "mmm", "f": 0.99, "design": "ASIC",
                "node_nm": 22}

        async def main():
            live = ModelService(_live_config())
            service = ModelService(
                _live_config(tensor_dir=corrupt_dir)
            )
            try:
                health = await service.handle("GET", "/healthz")
                answer = await service.handle(
                    "POST", "/v1/speedup", json.dumps(body).encode()
                )
                reference = await live.handle(
                    "POST", "/v1/speedup", json.dumps(body).encode()
                )
                counters = _tensor_counts(service)
                fastpath = service.fastpath
            finally:
                live.close()
                service.close()
            return health, answer, reference, counters, fastpath

        health, answer, reference, counters, fastpath = _run(main())
        status, payload = health
        # Quarantine is informational: the service itself stays ready.
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["tensor"]["status"] == "quarantined"
        assert "checksum" in payload["tensor"]["error"]
        # Requests still answer correctly via live compute.
        assert json.dumps(answer) == json.dumps(reference)
        assert counters["fallback"] == 1
        # No byte cache without a trustworthy store.
        assert fastpath is None


class TestTransportFastPath:
    BODY = json.dumps(
        {"workload": "mmm", "f": 0.99, "design": "ASIC", "node_nm": 22}
    ).encode()

    def test_replays_identical_json_without_id_headers(self,
                                                       tensor_dir):
        async def main():
            service = ModelService(_live_config(tensor_dir=tensor_dir))
            try:
                blob = service.fastpath.response_bytes(
                    "POST", "/v1/speedup", {}, self.BODY
                )
                _, payload = await service.handle(
                    "POST", "/v1/speedup", self.BODY
                )
            finally:
                service.close()
            return blob, payload

        blob, payload = _run(main())
        head, _, body = blob.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert b"Connection: keep-alive" in head
        assert b"X-Request-Id" not in head
        assert b"X-Trace-Id" not in head
        assert json.loads(body) == payload
        assert f"Content-Length: {len(body)}".encode() in head

    def test_eligibility_gates(self, tensor_dir):
        service = ModelService(_live_config(tensor_dir=tensor_dir))
        fp = service.fastpath
        try:
            # Sending X-Request-Id opts into tracing: full pipeline.
            assert fp.response_bytes(
                "POST", "/v1/speedup", {"x-request-id": "abc"},
                self.BODY,
            ) is None
            # Connection: close cannot reuse a keep-alive response.
            assert fp.response_bytes(
                "POST", "/v1/speedup", {"connection": "close"},
                self.BODY,
            ) is None
            assert fp.response_bytes(
                "GET", "/v1/speedup", {}, self.BODY
            ) is None
            assert fp.response_bytes(
                "POST", "/healthz", {}, self.BODY
            ) is None
        finally:
            service.close()

    def test_unanswerable_bodies_negative_cache(self, tensor_dir):
        service = ModelService(_live_config(tensor_dir=tensor_dir))
        fp = service.fastpath
        try:
            bad = b"not json"
            off_grid_sweep = json.dumps(
                {"workload": "mmm", "f": 0.45, "design": "ASIC"}
            ).encode()
            for body in (bad, off_grid_sweep):
                assert fp.response_bytes(
                    "POST", "/v1/sweep", {}, body
                ) is None
            entries = fp.stats()["entries"]
            # A repeat probe hits the negative cache, not a rebuild.
            assert fp.response_bytes(
                "POST", "/v1/sweep", {}, bad
            ) is None
            assert fp.stats()["entries"] == entries
        finally:
            service.close()

    def test_deferred_accounting_drains_into_metrics(self, tensor_dir):
        service = ModelService(_live_config(tensor_dir=tensor_dir))
        fp = service.fastpath
        try:
            for _ in range(3):
                assert fp.response_bytes(
                    "POST", "/v1/speedup", {}, self.BODY
                ) is not None
            assert fp.stats()["pending"] == 3
            fp.drain()
            assert fp.stats()["pending"] == 0
            requests = service.registry.counter(
                "repro_service_requests_total"
            )
            assert requests.value(endpoint="/v1/speedup", status="200") == 3
            assert _tensor_counts(service)["hit"] == 3
        finally:
            service.close()


class TestPrometheusFamilies:
    def test_tensor_families_render_and_validate(self, tensor_dir):
        async def main():
            service = ModelService(_live_config(tensor_dir=tensor_dir))
            try:
                await service.handle(
                    "POST", "/v1/speedup", TestTransportFastPath.BODY
                )
                return await service.handle_request(
                    "GET", "/metrics?format=prom"
                )
            finally:
                service.close()

        status, text, _headers = _run(main())
        assert status == 200
        names = validate_prometheus(
            text,
            required=(
                "repro_tensorstore_requests_total",
                "repro_tensorstore_build_age_seconds",
                "repro_service_requests_total",
            ),
        )
        assert 'outcome="hit"' in text
        assert "repro_tensorstore_build_age_seconds" in names

    def test_json_metrics_carry_store_block(self, tensor_dir):
        async def main():
            service = ModelService(_live_config(tensor_dir=tensor_dir))
            try:
                return await service.handle("GET", "/metrics")
            finally:
                service.close()

        status, payload = _run(main())
        assert status == 200
        block = payload["tensorstore"]
        assert block["store"]["status"] == "ready"
        assert block["fastpath"] == {"entries": 0, "pending": 0}
        assert set(block) >= {"hit", "interp", "fallback"}


def _key_tree(value):
    """``value`` with every leaf replaced by None: its shape only."""
    if isinstance(value, dict):
        return {key: _key_tree(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_key_tree(item) for item in value]
    return None


class TestMetricsSurface:
    """The serving metrics surface, pinned after one request of each
    kind: which Prometheus families exist, and the JSON ``/metrics``
    key tree that dashboards, perfbench and tests read."""

    REQUESTS = (
        # hit, interp, fallback, then the same fallback again: a live
        # request answered by the response cache; then a sweep hit.
        ("/v1/speedup", {"workload": "mmm", "f": 0.99, "design": "ASIC",
                         "node_nm": 22}),
        ("/v1/speedup", {"workload": "mmm", "f": 0.45, "design": "ASIC",
                         "node_nm": 22}),
        ("/v1/optimize", {"workload": "mmm", "f": 0.45, "node_nm": 22}),
        ("/v1/optimize", {"workload": "mmm", "f": 0.45, "node_nm": 22}),
        ("/v1/sweep", {"workload": "mmm", "f": 0.99, "design": "ASIC"}),
        ("/v1/dse", {"scenario": "baseline"}),
    )

    FAMILIES = {
        "repro_dse_configs_evaluated_total",
        "repro_dse_requests_total",
        "repro_phase_seconds",
        "repro_service_batch_dispatches_total",
        "repro_service_batched_items_total",
        "repro_service_jobs_total",
        "repro_service_max_batch_items",
        "repro_service_request_seconds",
        "repro_service_requests_total",
        "repro_service_response_cache_total",
        "repro_service_uptime_seconds",
        "repro_slo_burn_rate",
        "repro_slo_error_budget_remaining",
        "repro_slo_events_total",
        "repro_slo_status",
        "repro_tensorstore_build_age_seconds",
        "repro_tensorstore_requests_total",
    }

    @pytest.fixture(scope="class")
    def surface(self, tensor_dir):
        """``(JSON /metrics body, Prometheus text)`` after the mix."""
        async def main():
            service = ModelService(_live_config(tensor_dir=tensor_dir))
            try:
                for i, (path, body) in enumerate(self.REQUESTS):
                    # Traced, so every endpoint keeps its exemplar.
                    status, _, _ = await service.handle_request(
                        "POST", path, json.dumps(body).encode(),
                        {"x-request-id": f"surface-{i}"},
                    )
                    assert status in (200, 202), path
                assert service.jobs.join(timeout=60)
                # One replay through the transport byte cache, so its
                # deferred accounting lands in the same families.
                assert service.fastpath.response_bytes(
                    "POST", "/v1/speedup", {},
                    TestTransportFastPath.BODY,
                ) is not None
                _, snapshot = await service.handle("GET", "/metrics")
                _, text, _ = await service.handle_request(
                    "GET", "/metrics?format=prom"
                )
            finally:
                service.close()
            return snapshot, text

        return _run(main())

    def test_prometheus_families(self, surface):
        _snapshot, text = surface
        families = {
            line.split()[2]
            for line in text.splitlines()
            if line.startswith("# TYPE ")
        }
        pinned = {
            name for name in families
            if name.startswith(
                ("repro_service_", "repro_tensorstore_", "repro_slo_",
                 "repro_dse_")
            )
            or name == "repro_phase_seconds"
        }
        assert pinned == self.FAMILIES
        validate_prometheus(text, required=sorted(self.FAMILIES))

    def test_json_key_tree(self, surface):
        snapshot, _text = surface
        latency = dict.fromkeys(
            ("count", "mean_ms", "p50_ms", "p99_ms", "slowest_ms",
             "slowest_trace_id")
        )
        endpoints = ("/v1/speedup", "/v1/optimize", "/v1/sweep",
                     "/v1/dse")
        objective = dict.fromkeys(
            ("name", "endpoint", "target", "latency_threshold_ms",
             "status", "burn_rate_fast", "burn_rate_slow",
             "error_budget_remaining", "events_good", "events_bad")
        )
        store = dict.fromkeys(
            ("enabled", "status", "directory", "groups", "designs",
             "cells", "bytes", "f_points", "r_max", "spec_hash",
             "built_unix", "model_version")
        )
        assert _key_tree(snapshot) == {
            "uptime_s": None,
            "requests": {
                "/v1/speedup": {"200": None},
                "/v1/optimize": {"200": None},
                "/v1/sweep": {"200": None},
                "/v1/dse": {"202": None},
            },
            "latency": {endpoint: latency for endpoint in endpoints},
            "cache": {"hits": None, "misses": None},
            "batching": dict.fromkeys(
                ("dispatches", "items", "max_batch", "efficiency")
            ),
            "jobs": {"queued": None, "succeeded": None},
            "dse": {"accepted": None, "rejected": None},
            "tensorstore": {
                "hit": None,
                "interp": None,
                "fallback": None,
                "store": store,
                "fastpath": {"entries": None, "pending": None},
            },
            "perf_cache": dict.fromkeys(
                ("caches", "hits", "misses", "entries")
            ),
            "campaign": {
                "total": None,
                "states": {"succeeded": None},
                "store": dict.fromkeys(
                    ("hits", "misses", "writes", "corrupt")
                ),
            },
            "slo": {
                "status": None,
                "objectives": [objective] * 4,
                "windows": {"fast_s": None, "slow_s": None},
                "burn_thresholds": {"fast": None, "slow": None},
            },
            "events": dict.fromkeys(
                ("streams", "published", "trimmed", "open")
            ),
        }
        # The counts behind the tree: one of each outcome, and the
        # fast-path replay drained into the request and tensor counts.
        assert snapshot["requests"]["/v1/speedup"]["200"] == 3
        assert snapshot["tensorstore"]["hit"] == 3
        assert snapshot["tensorstore"]["interp"] == 1
        assert snapshot["tensorstore"]["fallback"] == 2
        assert snapshot["cache"] == {"hits": 1, "misses": 1}
        assert snapshot["dse"] == {"accepted": 1, "rejected": 0}
        assert snapshot["jobs"] == {"queued": 1, "succeeded": 1}
        assert snapshot["tensorstore"]["fastpath"]["entries"] == 1


class TestTraceFile:
    def test_traced_on_grid_request_exports_its_lookup(
        self, tensor_dir, tmp_path
    ):
        """A traced on-grid request's JSONL shows ``http.request ->
        tensor.lookup``: the store answered it, inside its trace."""
        trace_file = tmp_path / "trace.jsonl"
        trace_id = "0af7651916cd43dd8448eb211c80319c"
        previous = get_tracer().export_path

        async def main():
            service = ModelService(
                _live_config(
                    tensor_dir=tensor_dir, trace_file=str(trace_file)
                )
            )
            try:
                return await service.handle_request(
                    "POST", "/v1/speedup", TestTransportFastPath.BODY,
                    {"x-request-id": trace_id},
                )
            finally:
                service.close()

        try:
            status, _payload, headers = _run(main())
        finally:
            get_tracer().set_export_path(previous)
        assert status == 200
        assert headers["X-Trace-Id"] == trace_id
        spans = {
            span["span_id"]: span
            for span in map(json.loads, trace_file.read_text().splitlines())
            if span["trace_id"] == trace_id
        }
        [lookup] = [s for s in spans.values() if s["name"] == "tensor.lookup"]
        assert lookup["attributes"]["outcome"] == "hit"
        assert spans[lookup["parent_id"]]["name"] == "http.request"
