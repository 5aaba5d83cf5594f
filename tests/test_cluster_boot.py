"""How a serving fleet boots (repro.cluster.supervisor).

The supervisor launches every worker before it waits for any port, and
a worker that fails to report stops the whole boot.  A worker starts
OpenBLAS with one thread unless its caller chose otherwise.  The last
class boots a real ``repro-hetsim serve --workers 2`` and checks what
a client sees: health, routing, the merged scrape and a clean SIGTERM.
"""

import asyncio
import http.client
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro.cluster.supervisor as supervisor_module
from repro.cluster import ClusterConfig, WorkerSupervisor
from repro.errors import ServiceError
from repro.obs.metrics import MetricsRegistry, validate_prometheus
from repro.service.app import ModelService, ServiceConfig

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def _env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.update(extra)
    return env


class _FakePipe:
    """Both ends of one worker's port-report pipe."""

    def __init__(self, fleet):
        self.fleet = fleet
        self.worker = None

    def poll(self, timeout):
        self.fleet.events.append(("await", self.worker))
        return self.fleet.reports_ready(self.worker)

    def recv(self):
        report = self.fleet.reports[self.worker]
        if report is None:
            raise EOFError
        return report

    def close(self):
        pass


class _FakeProcess:
    pid = 0

    def __init__(self, fleet, pipe):
        self.fleet = fleet
        self.name = pipe.worker
        self.alive = False
        self.joined = False

    def start(self):
        self.fleet.events.append(("start", self.name))
        self.alive = True

    def is_alive(self):
        return self.alive

    def terminate(self):
        self.alive = False

    def kill(self):
        self.alive = False

    def join(self, timeout=None):
        self.joined = True


class _FakeFleet:
    """A stand-in for the spawn context that records the boot order.

    A worker's report is ready only once every worker has started, so
    a supervisor that waits for one port before launching the next
    worker sees its first worker time out.
    """

    def __init__(self, workers, reports=None, silent=()):
        self.workers = workers
        self.events = []
        self.processes = []
        self.silent = set(silent)
        self.reports = {
            f"w{i}": {"worker": f"w{i}", "port": 4000 + i}
            for i in range(1, workers + 1)
        }
        self.reports.update(reports or {})

    def reports_ready(self, worker):
        started = sum(1 for kind, _ in self.events if kind == "start")
        return started == self.workers and worker not in self.silent

    def Pipe(self, duplex):
        pipe = _FakePipe(self)
        return pipe, pipe

    def Process(self, target, args, name, daemon):
        worker, _config, pipe = args
        pipe.worker = worker
        process = _FakeProcess(self, pipe)
        self.processes.append(process)
        return process


def _supervisor(fleet):
    supervisor = WorkerSupervisor(
        ClusterConfig(workers=fleet.workers), registry=MetricsRegistry()
    )
    supervisor._ctx = fleet
    return supervisor


class TestStartUp:
    def test_every_worker_is_launched_before_any_port_is_awaited(self):
        fleet = _FakeFleet(workers=3)
        supervisor = _supervisor(fleet)
        assert supervisor.start() == {"w1": 4001, "w2": 4002, "w3": 4003}
        assert fleet.events == [
            ("start", "w1"), ("start", "w2"), ("start", "w3"),
            ("await", "w1"), ("await", "w2"), ("await", "w3"),
        ]
        assert supervisor.alive() == {"w1": True, "w2": True, "w3": True}

    @pytest.mark.parametrize(
        "failure, message",
        [
            ({"silent": ["w2"]}, "worker w2 did not report a port"),
            ({"reports": {"w2": None}},
             "worker w2 died before reporting a port"),
            ({"reports": {"w2": {"worker": "w2", "error": "in use"}}},
             "worker w2 failed to bind: in use"),
        ],
        ids=["timeout", "death", "bind-error"],
    )
    def test_a_worker_that_fails_to_report_stops_the_boot(
        self, failure, message
    ):
        fleet = _FakeFleet(workers=3, **failure)
        supervisor = _supervisor(fleet)
        with pytest.raises(ServiceError, match=message):
            supervisor.start()
        assert [(p.name, p.alive, p.joined) for p in fleet.processes] == [
            ("w1", False, True), ("w2", False, True), ("w3", False, True),
        ]
        assert supervisor.ports() == {}
        assert supervisor.alive() == {"w1": False, "w2": False, "w3": False}

    def test_failed_boot_leaves_no_worker_process(self, monkeypatch):
        """Real spawned workers, none given time to report: the first
        times out, and every launched worker is gone when start()
        raises."""
        monkeypatch.setattr(supervisor_module, "WORKER_START_TIMEOUT_S", 0.01)
        supervisor = WorkerSupervisor(
            ClusterConfig(workers=2, service=ServiceConfig(profile=False)),
            registry=MetricsRegistry(),
        )
        launched = []
        launch = supervisor._launch

        def recorded(slot):
            launched.append(launch(slot))
            return launched[-1]

        supervisor._launch = recorded
        with pytest.raises(ServiceError, match="worker w1 did not report"):
            supervisor.start()
        assert len(launched) == 2
        assert [process.is_alive() for process, _ in launched] == [
            False, False,
        ]
        assert supervisor.alive() == {"w1": False, "w2": False}


#: Runs :func:`_worker_main` in this process, as a spawned child would,
#: and records ``OPENBLAS_NUM_THREADS`` when numpy is first imported.
_WORKER = r"""
import http.client, json, multiprocessing, os, signal, sys, threading

import repro.cli  # the main module a spawned ``serve`` child re-imports
from repro.cluster.supervisor import _worker_main
from repro.service.config import ServiceConfig

before = "numpy" in sys.modules
seen = []


class _Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None


sys.meta_path.insert(0, _Spy())
reports, conn = multiprocessing.Pipe(duplex=False)


def stop_once_serving():
    port = reports.recv()["port"]
    client = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    client.request("GET", "/healthz")
    client.getresponse().read()
    os.kill(os.getpid(), signal.SIGTERM)


threading.Thread(target=stop_once_serving, daemon=True).start()
_worker_main("w1", ServiceConfig(profile=False), conn)
print(json.dumps({"numpy_before": before, "threads": seen}))
"""


class TestWorkerBlas:
    @pytest.mark.parametrize(
        "caller, expected", [(None, "1"), ("3", "3")],
        ids=["default", "caller-set"],
    )
    def test_worker_sets_one_blas_thread_before_numpy(
        self, caller, expected
    ):
        """Nothing a spawned worker imports before its target runs
        loads numpy, and the target's first act is the one-thread
        default, which a value the caller set overrides."""
        env = _env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        if caller is not None:
            env["OPENBLAS_NUM_THREADS"] = caller
        done = subprocess.run(
            [sys.executable, "-c", _WORKER],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.splitlines()[-1])
        assert report == {"numpy_before": False, "threads": [expected]}


#: The routed request the smoke compares with a single process.
SPEEDUP_BODY = {"workload": "fft", "f": 0.99, "design": "GTX480"}

#: The families one scrape of the fleet must carry.
FLEET_FAMILIES = [
    "repro_cluster_requests_total",
    "repro_cluster_request_seconds",
    "repro_cluster_workers",
    "repro_cluster_workers_configured",
    "repro_cluster_worker_respawns_total",
    "repro_service_requests_total",
]


def _serve_fleet(log_path):
    """A real ``serve --workers 2`` on an ephemeral port, and its port
    (read from the router's ``router.listening`` log line)."""
    log = open(log_path, "w")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", "--workers", "2",
            "--port", "0", "--log-level", "info",
        ],
        env=_env(), stdout=log, stderr=subprocess.STDOUT, text=True,
    )
    log.close()
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline and proc.poll() is None:
        with open(log_path) as lines:
            for line in lines:
                if line.startswith("{"):
                    record = json.loads(line)
                    if record.get("event") == "router.listening":
                        return proc, record["port"]
        time.sleep(0.05)
    proc.kill()
    proc.wait(timeout=30)
    raise AssertionError(
        f"serve exited {proc.returncode} before listening:\n"
        + open(log_path).read()
    )


def _get(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class TestFleetSmoke:
    def test_boot_route_scrape_and_stop(self, tmp_path):
        """A real router and 2 workers: healthy, routing bit-identically
        to one process, scraped as one fleet, and stopped cleanly by
        SIGTERM (CI's cluster-smoke job runs this test)."""
        proc, port = _serve_fleet(tmp_path / "cluster-serve.log")
        try:
            status, health = _get(port, "GET", "/healthz")
            assert status == 200
            health = json.loads(health)
            assert health["status"] == "ok", health
            assert health["topology"] == {
                "workers": 2, "routing": "rendezvous",
            }, health
            assert health["cluster"]["alive"] == 2, health

            # Byte-stable across asks (the owning worker's cache) and
            # equal to a single-process ModelService: scale-out never
            # changes a number.
            body = json.dumps(SPEEDUP_BODY).encode()
            first = _get(port, "POST", "/v1/speedup", body)
            second = _get(port, "POST", "/v1/speedup", body)
            assert first[0] == second[0] == 200
            assert first[1] == second[1]

            status, exposition = _get(port, "GET", "/metrics?format=prom")
            assert status == 200
            text = exposition.decode()
            validate_prometheus(text, required=FLEET_FAMILIES)
            assert 'worker="w1"' in text and 'worker="w2"' in text
            assert 'worker="router"' in text

            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        assert proc.returncode == 0

        async def single_process():
            service = ModelService(ServiceConfig())
            try:
                return await service.handle("POST", "/v1/speedup", body)
            finally:
                service.close()

        status, payload = asyncio.run(single_process())
        assert status == 200
        assert json.dumps(json.loads(first[1])) == json.dumps(payload)
