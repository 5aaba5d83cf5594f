"""Multi-worker serving through the router (repro.cluster).

Boots a real 2-worker cluster (spawned worker processes + the asyncio
router in a background thread) once per module and drives it with raw
keep-alive sockets, exactly like an external client.  Chaos tests get
their own short-lived cluster so killing workers cannot leak into the
shared harness.  A second, materialized fleet is compared byte for
byte with a single-process server over the same tensor store.
"""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.cluster import ClusterConfig, Router, WorkerSupervisor
from repro.cluster.hashring import rendezvous_owner, shard_key
from repro.obs.metrics import MetricsRegistry, validate_prometheus
from repro.obs.trace import phase_totals
from repro.perf.tensorstore import build_tensor_store
from repro.service.app import ModelService, ServiceConfig
from repro.service.http import encode_request, read_response, serve_until

SPEEDUP_BODY = json.dumps(
    {"workload": "mmm", "f": 0.99, "design": "GTX480"}
).encode()


def _exchange(conn, method, path, body=b"", headers=()):
    """Send one request on ``conn``; returns (head, headers, body).

    ``head`` is the raw status line and header block, for byte-level
    comparisons of whole responses.
    """
    extra = "".join(f"{name}: {value}\r\n" for name, value in headers)
    conn.sendall(
        (
            f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Content-Type: application/json\r\n{extra}\r\n"
        ).encode() + body
    )
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        if not chunk:
            raise ConnectionError("server closed mid-response")
        data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    parsed = {}
    for line in head.decode().split("\r\n")[1:]:
        name, _, value = line.partition(":")
        parsed[name.strip().lower()] = value.strip()
    length = int(parsed.get("content-length", 0))
    while len(rest) < length:
        rest += conn.recv(65536)
    return head, parsed, rest


def _request(port, method, path, body=b"", keep=False, sock=None):
    """One raw HTTP/1.1 round trip; returns (status, headers, body, sock)."""
    conn = sock or socket.create_connection(("127.0.0.1", port), timeout=30)
    connection = "keep-alive" if keep else "close"
    head, headers, rest = _exchange(
        conn, method, path, body, [("Connection", connection)]
    )
    status = int(head.split()[1])
    if not keep:
        conn.close()
        conn = None
    return status, headers, rest, conn


def _request_with_headers(port, method, path, body, extra_headers):
    conn = socket.create_connection(("127.0.0.1", port), timeout=30)
    head, headers, rest = _exchange(
        conn, method, path, body,
        [*extra_headers.items(), ("Connection", "close")],
    )
    conn.close()
    return int(head.split()[1]), headers, rest


class _Cluster:
    """A live cluster: worker processes + router loop in a thread."""

    def __init__(self, workers=2, respawn_backoff_s=0.5, service=None):
        self.config = ClusterConfig(
            workers=workers,
            service=service or ServiceConfig(),
            host="127.0.0.1",
            port=0,
            respawn_backoff_s=respawn_backoff_s,
        )
        # Private registries: several clusters per test session must
        # not fight over callback gauges in the process-global one.
        self.supervisor = WorkerSupervisor(
            self.config, registry=MetricsRegistry()
        )
        self.router = Router(self.config, self.supervisor)
        self._ready = threading.Event()
        self._loop = None
        self._stop = None
        self._thread = None

    def start(self):
        self.supervisor.start()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), daemon=True
        )
        self._thread.start()
        assert self._ready.wait(60), "router did not start"
        return self

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        ready = asyncio.Event()
        serve = asyncio.ensure_future(
            self.router.serve_until(self._stop, ready=ready)
        )
        await ready.wait()
        self._ready.set()
        await serve

    @property
    def port(self):
        return self.router.bound_port

    def kill_worker(self, name):
        process = self.supervisor._slots[name].process
        process.kill()
        process.join(10)

    def stop(self):
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(30)
        self.supervisor.stop()


@pytest.fixture(scope="module")
def cluster():
    harness = _Cluster(workers=2).start()
    yield harness
    harness.stop()


class TestRouting:
    def test_routed_speedup_matches_single_process(self, cluster):
        status, _, body, _ = _request(
            cluster.port, "POST", "/v1/speedup", SPEEDUP_BODY
        )
        assert status == 200, body
        routed = json.loads(body)

        async def _direct():
            service = ModelService(ServiceConfig())
            try:
                return await service.handle_request(
                    "POST", "/v1/speedup", SPEEDUP_BODY
                )
            finally:
                service.close()

        direct_status, direct_payload, _ = asyncio.run(_direct())
        assert direct_status == 200
        assert routed == direct_payload

    def test_same_key_is_bit_stable_across_keep_alive(self, cluster):
        status, headers, first, conn = _request(
            cluster.port, "POST", "/v1/speedup", SPEEDUP_BODY, keep=True
        )
        assert status == 200
        # Untraced on every tier: no ids from the router or the worker.
        assert "x-request-id" not in headers and "x-trace-id" not in headers
        status, _, second, conn = _request(
            cluster.port, "POST", "/v1/speedup", SPEEDUP_BODY,
            keep=True, sock=conn,
        )
        conn.close()
        assert status == 200
        assert first == second

    def test_unparseable_body_still_gets_the_worker_400(self, cluster):
        status, _, body, _ = _request(
            cluster.port, "POST", "/v1/speedup", b"{broken"
        )
        assert status == 400
        assert json.loads(body)["error"]

    def test_malformed_request_gets_the_worker_400(self, cluster):
        """Router and worker frame requests on one transport: a
        malformed request gets the same 400, byte for byte, from
        either."""
        answers = []
        for port in (cluster.port, cluster.supervisor.ports()["w1"]):
            conn = socket.create_connection(("127.0.0.1", port), timeout=30)
            conn.sendall(
                b"GET /healthz HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n"
            )
            data = b""
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                data += chunk
            conn.close()
            answers.append(data)
        routed, direct = answers
        assert routed.startswith(b"HTTP/1.1 400 ")
        assert routed == direct
        assert b'"ProtocolError"' in routed

    def test_healthz_reports_topology_and_fleet(self, cluster):
        status, _, body, _ = _request(cluster.port, "GET", "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["role"] == "router"
        assert payload["topology"] == {
            "workers": 2, "routing": "rendezvous",
        }
        workers = payload["cluster"]["workers"]
        assert sorted(workers) == ["w1", "w2"]
        assert all(entry["alive"] for entry in workers.values())


class _OneWorker:
    """The supervisor surface the router reads, for one fake worker."""

    def __init__(self, port):
        self.port = port

    def ports(self):
        return {"w1": self.port}

    def alive(self):
        return {"w1": True}

    def poll(self):
        return []


class TestUpstreamFraming:
    @pytest.mark.parametrize("length", [b"abc", b"+3", b"1_0"])
    def test_malformed_worker_length_is_a_503(self, length):
        """The router reads worker answers with the client rule:
        ``Content-Length`` is ASCII digits, else an honest 503."""

        async def bad_worker(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            writer.write(
                b"HTTP/1.1 200 OK\r\nContent-Length: " + length
                + b"\r\n\r\n0123456789"
            )
            await writer.drain()
            writer.close()

        async def main():
            worker = await asyncio.start_server(bad_worker, "127.0.0.1", 0)
            router = Router(
                ClusterConfig(workers=1, host="127.0.0.1", port=0),
                _OneWorker(worker.sockets[0].getsockname()[1]),
                registry=MetricsRegistry(),
            )
            try:
                return await router.handle_request(
                    "GET", "/v1/slo", b"", {"connection": "close"}
                )
            finally:
                worker.close()
                await worker.wait_closed()

        status, payload, _ = asyncio.run(main())
        assert status == 503
        assert payload["error"] == "UpstreamError"


class _BrokenLiveness(_OneWorker):
    """A supervisor whose first liveness read fails unexpectedly."""

    def __init__(self, port):
        super().__init__(port)
        self.faults = [RuntimeError("liveness broke")]

    def liveness(self):
        if self.faults:
            raise self.faults.pop()
        return {"alive": 1, "configured": 1, "workers": {}}


class TestInternalErrors:
    def test_router_fault_is_a_500_on_a_live_connection(self):
        """An exception the router does not map is answered 500
        ``InternalError`` and counted as an error, and the keep-alive
        connection serves the next request."""

        async def main():
            router = Router(
                ClusterConfig(workers=1, host="127.0.0.1", port=0),
                _BrokenLiveness(port=9),
                registry=MetricsRegistry(),
            )
            stop, ready = asyncio.Event(), asyncio.Event()
            served = asyncio.ensure_future(
                router.serve_until(stop, ready=ready)
            )
            await ready.wait()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", router.bound_port
            )
            answers = []
            try:
                for _ in range(2):
                    writer.write(encode_request("GET", "/healthz", {}))
                    answers.append(await read_response(reader))
            finally:
                writer.close()
                stop.set()
                await served
            errors = router.registry.get("repro_cluster_requests_total")
            return answers, errors.value(worker="router", outcome="error")

        (failed, answered), errors = asyncio.run(main())
        status, headers, body = failed
        assert status == 500
        assert json.loads(body) == {
            "error": "InternalError", "message": "RuntimeError",
        }
        assert headers["connection"] == "keep-alive"
        assert answered[0] == 200
        assert json.loads(answered[2])["status"] == "ok"
        assert errors == 1


class TestMetrics:
    def test_json_metrics_merge_all_workers(self, cluster):
        _request(cluster.port, "POST", "/v1/speedup", SPEEDUP_BODY)
        status, _, body, _ = _request(cluster.port, "GET", "/metrics")
        assert status == 200
        snapshot = json.loads(body)
        assert sorted(snapshot["workers"]) == ["w1", "w2"]
        assert snapshot["cluster"]["topology"]["workers"] == 2
        assert "repro_cluster_requests_total" in snapshot["router"]

    def test_prometheus_merge_validates(self, cluster):
        _request(cluster.port, "POST", "/v1/speedup", SPEEDUP_BODY)
        status, headers, body, _ = _request(
            cluster.port, "GET", "/metrics?format=prom"
        )
        assert status == 200
        text = body.decode()
        for label in ('worker="router"', 'worker="w1"', 'worker="w2"'):
            assert label in text, text[:500]
        # One TYPE header per family even with three sources merged.
        assert text.count("# TYPE repro_requests_total ") <= 1
        validate_prometheus(
            text,
            required=(
                "repro_cluster_requests_total",
                "repro_cluster_workers",
            ),
        )


class TestJobs:
    def test_job_scatter_gather_resolves_worker_local_ids(self, cluster):
        spec = json.dumps({"name": "t", "figures": ["F6"]}).encode()
        status, _, body, _ = _request(
            cluster.port, "POST", "/v1/jobs", spec
        )
        assert status == 202, body
        job_id = json.loads(body)["job_id"]
        deadline = time.monotonic() + 60
        state = None
        while time.monotonic() < deadline:
            status, _, body, _ = _request(
                cluster.port, "GET", f"/v1/jobs/{job_id}"
            )
            assert status == 200, body
            state = json.loads(body)["state"]
            if state in ("succeeded", "failed"):
                break
            time.sleep(0.1)
        assert state == "succeeded", state

    def test_unknown_job_id_is_a_clean_404(self, cluster):
        status, _, body, _ = _request(
            cluster.port, "GET", "/v1/jobs/no-such-job"
        )
        assert status == 404
        assert json.loads(body)["error"]


class TestTracePropagation:
    def test_one_trace_spans_router_and_worker(self, cluster):
        trace_id = "ab" * 16  # 32-hex: adopted as the trace id
        status, headers, _ = _request_with_headers(
            cluster.port, "POST", "/v1/speedup", SPEEDUP_BODY,
            {"X-Request-Id": trace_id},
        )
        assert status == 200
        assert headers["x-request-id"] == trace_id
        assert headers["x-trace-id"] == trace_id
        # The worker that served it recorded spans under the same id.
        found = []
        for port in cluster.supervisor.ports().values():
            status, _, body, _ = _request(
                port, "GET", f"/v1/traces?trace_id={trace_id}"
            )
            assert status == 200
            found.extend(json.loads(body)["spans"])
        assert found, "no worker recorded the forwarded trace id"
        assert any(
            span["name"] == "http.request" for span in found
        )


#: A small materialized grid (the one ``test_service_tensor`` serves):
#: 0.45 is absent, so it exercises interpolation and fallback.
F_GRID = (0.0, 0.4, 0.5, 0.9, 0.99, 0.999, 1.0)


class _SingleProcess:
    """One ``service.http`` server on an ephemeral port, in a thread."""

    def __init__(self, config):
        self.config = config
        self.port = None
        self._ready = threading.Event()
        self._loop = None
        self._stop = None
        self._thread = None

    def start(self):
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), daemon=True
        )
        self._thread.start()
        assert self._ready.wait(60), "server did not start"
        return self

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        sock = socket.create_server(("127.0.0.1", 0))
        self.port = sock.getsockname()[1]
        ready = asyncio.Event()
        serve = asyncio.ensure_future(
            serve_until(
                ModelService(self.config), self._stop, ready=ready,
                sock=sock,
            )
        )
        await ready.wait()
        self._ready.set()
        await serve

    def stop(self):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(30)


@pytest.fixture(scope="module")
def materialized(tmp_path_factory):
    """A 2-worker fleet and a single-process server over one store."""
    tensor_dir = tmp_path_factory.mktemp("fleet-tensors")
    build_tensor_store(tensor_dir, f_grid=F_GRID)
    config = ServiceConfig(tensor_dir=str(tensor_dir))
    fleet = _Cluster(workers=2, service=config).start()
    try:
        single = _SingleProcess(config).start()
        try:
            yield fleet, single
        finally:
            single.stop()
    finally:
        fleet.stop()


def _router_spans():
    return phase_totals().get("router.request", {}).get("calls", 0)


def _owner(fleet, path, body):
    return rendezvous_owner(
        shard_key(path, body), fleet.config.worker_names()
    )


class TestMaterializedFleet:
    """Through the router, a materialized fleet answers as one process
    over the same store does: an untraced keep-alive POST reaches the
    owning worker's byte cache and comes back as that worker's bytes."""

    #: Byte-cache answers: on-grid hits on every model endpoint and one
    #: harmonic interpolation, owned by both workers between them.
    FAST = (
        ("/v1/speedup", {"workload": "mmm", "f": 0.99, "design": "ASIC",
                         "node_nm": 22}),
        ("/v1/speedup", {"workload": "mmm", "f": 0.9, "design": "GTX285",
                         "node_nm": 22}),
        ("/v1/sweep", {"workload": "mmm", "f": 0.5, "design": "GTX285"}),
        ("/v1/optimize", {"workload": "mmm", "f": 0.5, "node_nm": 22}),
        ("/v1/speedup", {"workload": "mmm", "f": 0.45, "design": "ASIC",
                         "node_nm": 22}),
    )
    #: Full-pipeline answers with their statuses: an off-grid aggregate
    #: (live compute) and a body that fails validation.
    SLOW = (
        ("/v1/optimize", {"workload": "mmm", "f": 0.45, "node_nm": 22},
         b"200"),
        ("/v1/speedup", {"workload": "mmm", "f": 2.0, "design": "ASIC"},
         b"400"),
    )

    def test_untraced_answers_equal_a_single_process_server(
        self, materialized
    ):
        fleet, single = materialized
        owners = {
            _owner(fleet, path, json.dumps(body).encode())
            for path, body in self.FAST
        }
        assert owners == set(fleet.config.worker_names())
        routed_spans = _router_spans()
        conns = [
            socket.create_connection(("127.0.0.1", port), timeout=30)
            for port in (fleet.port, single.port)
        ]
        try:
            for path, body in self.FAST:
                raw = json.dumps(body).encode()
                routed, direct = (
                    _exchange(conn, "POST", path, raw) for conn in conns
                )
                assert direct[0].startswith(b"HTTP/1.1 200 "), direct
                # The whole response, head included: no id headers.
                assert (routed[0], routed[2]) == (direct[0], direct[2])
            for path, body, status in self.SLOW:
                raw = json.dumps(body).encode()
                routed, direct = (
                    _exchange(conn, "POST", path, raw) for conn in conns
                )
                assert routed[0].split()[1] == direct[0].split()[1] == status
                assert (
                    routed[1]["content-type"] == direct[1]["content-type"]
                )
                assert routed[2] == direct[2]
                # Only the error carries ids: an untraced 200 is
                # answered without any, on both tiers.
                traced = status != b"200"
                for headers in (routed[1], direct[1]):
                    assert ("x-request-id" in headers) is traced
                    assert ("x-trace-id" in headers) is traced
        finally:
            for conn in conns:
                conn.close()
        assert _router_spans() == routed_spans
        status, _, body, _ = _request(fleet.port, "GET", "/metrics")
        assert status == 200
        workers = json.loads(body)["workers"]
        assert sorted(workers) == fleet.config.worker_names()
        for section in workers.values():
            assert section["tensorstore"]["fastpath"]["entries"] > 0

    @pytest.mark.parametrize("request_id", ["fa" * 16, "req-42"])
    def test_traced_request_takes_the_full_pipeline(
        self, materialized, request_id
    ):
        fleet, _single = materialized
        path, body = self.FAST[0]
        raw = json.dumps(body).encode()
        conn = socket.create_connection(("127.0.0.1", fleet.port), timeout=30)
        try:
            head, headers, _ = _exchange(
                conn, "POST", path, raw, [("X-Request-Id", request_id)]
            )
        finally:
            conn.close()
        assert head.startswith(b"HTTP/1.1 200 ")
        assert headers["x-request-id"] == request_id
        trace_id = headers["x-trace-id"]
        assert "router.request" in [
            span["name"] for span in fleet.router.tracer.spans(trace_id)
        ]
        owner_port = fleet.supervisor.ports()[_owner(fleet, path, raw)]
        status, _, traces, _ = _request(
            owner_port, "GET", f"/v1/traces?trace_id={trace_id}"
        )
        assert status == 200
        assert "http.request" in [
            span["name"] for span in json.loads(traces)["spans"]
        ]

    def test_untraced_close_gets_the_router_ids(self, materialized):
        fleet, _single = materialized
        path, body = self.FAST[0]
        status, headers, _, _ = _request(
            fleet.port, "POST", path, json.dumps(body).encode()
        )
        assert status == 200
        assert headers["x-request-id"]
        assert "router.request" in [
            span["name"]
            for span in fleet.router.tracer.spans(headers["x-trace-id"])
        ]


class TestWorkerDeath:
    """Satellite 3: kill a serving worker and watch the seams hold."""

    def _pick_victims(self, names):
        """A speedup body and a GET path owned by the same worker."""
        get_path = "/v1/slo"
        victim = rendezvous_owner(get_path, names)
        for f in (0.99, 0.95, 0.9, 0.85, 0.8, 0.75, 0.7, 0.5, 0.3):
            body = json.dumps(
                {"workload": "mmm", "f": f, "design": "GTX480"}
            ).encode()
            if rendezvous_owner(shard_key("/v1/speedup", body), names) == victim:
                return victim, body, get_path
        pytest.fail("no speedup body hashed onto the /v1/slo owner")

    def test_kill_mid_keep_alive(self):
        harness = _Cluster(workers=2, respawn_backoff_s=0.05).start()
        try:
            names = harness.config.worker_names()
            victim, body, get_path = self._pick_victims(names)
            survivor = [n for n in names if n != victim][0]

            status, _, healthy_body, _ = _request(
                harness.port, "POST", "/v1/speedup", body
            )
            assert status == 200

            # Freeze the respawner, and freeze the liveness view so
            # the router has not yet *observed* the death -- the
            # moment a real crash is racing the watchdog.
            original_poll = harness.supervisor.poll
            original_alive = harness.supervisor.alive
            frozen_alive = dict(original_alive())
            harness.supervisor.poll = lambda: []
            harness.supervisor.alive = lambda: dict(frozen_alive)
            try:
                harness.kill_worker(victim)

                # In-flight POST to the dead owner: an honest one-line
                # 503, never a silent retry of a non-idempotent call.
                status, _, error_body, _ = _request(
                    harness.port, "POST", "/v1/speedup", body
                )
                assert status == 503, error_body
                payload = json.loads(error_body)
                assert payload["error"] == "UpstreamError"
                assert "\n" not in payload["message"]

                # Idempotent GET owned by the corpse: retried onto the
                # survivor transparently.
                status, _, slo_body, _ = _request(
                    harness.port, "GET", get_path
                )
                assert status == 200, slo_body
                retried = harness.router._requests.value(
                    worker=victim, outcome="retried"
                )
                assert retried >= 1
            finally:
                harness.supervisor.alive = original_alive

            try:
                # Death now observed (alive() is live again): the
                # fleet is degraded but every request fails over.
                status, _, hz, _ = _request(harness.port, "GET", "/healthz")
                assert status == 200
                assert json.loads(hz)["status"] == "degraded"
                status, _, failover_body, _ = _request(
                    harness.port, "POST", "/v1/speedup", body
                )
                assert status == 200
                assert failover_body == healthy_body
            finally:
                harness.supervisor.poll = original_poll

            # Watchdog respawns under the same name; rendezvous hands
            # the replacement its old keys and answers go bit-identical.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                status, _, hz, _ = _request(harness.port, "GET", "/healthz")
                if status == 200 and json.loads(hz)["status"] == "ok":
                    break
                time.sleep(0.1)
            payload = json.loads(hz)
            assert payload["status"] == "ok", payload
            assert payload["cluster"]["workers"][victim]["respawns"] == 1
            assert survivor not in [
                name
                for name, entry in payload["cluster"]["workers"].items()
                if entry["respawns"]
            ]

            status, _, reborn_body, _ = _request(
                harness.port, "POST", "/v1/speedup", body
            )
            assert status == 200
            assert reborn_body == healthy_body
        finally:
            harness.stop()

    def test_respawn_is_counted_before_the_replacement_is_visible(self):
        """poll runs off the router's loop thread: once /healthz can
        see a replacement alive, its respawn is already counted."""

        class _Process:
            pid = 0

            def __init__(self, alive):
                self.alive = alive

            def is_alive(self):
                return self.alive

            def join(self, timeout=None):
                pass

        supervisor = WorkerSupervisor(
            ClusterConfig(workers=1), registry=MetricsRegistry()
        )
        supervisor._slots["w1"].process = _Process(alive=False)
        seen = []
        publish = supervisor._publish

        def spy(slot, process, port):
            seen.append(supervisor.liveness()["workers"]["w1"]["respawns"])
            publish(slot, process, port)

        supervisor._spawn = lambda slot: (_Process(alive=True), 4242)
        supervisor._publish = spy
        assert supervisor.poll() == ["w1"]
        assert seen == [1]
        assert supervisor.liveness()["workers"]["w1"] == {
            "alive": True, "port": 4242, "respawns": 1,
        }

    @pytest.mark.parametrize(
        "keep", [False, True], ids=["close", "keep-alive"]
    )
    def test_all_workers_dead_is_503_unavailable(self, keep):
        """Untraced keep-alive POSTs skip the router's span, not its
        failure semantics."""
        harness = _Cluster(workers=1, respawn_backoff_s=30.0).start()
        try:
            original_poll = harness.supervisor.poll
            harness.supervisor.poll = lambda: []
            try:
                harness.kill_worker("w1")
                status, _, body, _ = _request(
                    harness.port, "GET", "/healthz"
                )
                assert status == 503
                assert json.loads(body)["status"] == "unavailable"
                status, _, body, conn = _request(
                    harness.port, "POST", "/v1/speedup", SPEEDUP_BODY,
                    keep=keep,
                )
                if conn is not None:
                    conn.close()
                assert status == 503
                payload = json.loads(body)
                assert payload["error"] == "UpstreamError"
                assert "\n" not in payload["message"]
            finally:
                harness.supervisor.poll = original_poll
        finally:
            harness.stop()
