"""Graceful shutdown: drain in-flight requests, flush the store.

``serve_until`` is exercised in-process (stop event, connection
draining); the SIGTERM path is exercised end-to-end against a real
``repro-hetsim serve`` subprocess.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.service.app import ModelService, ServiceConfig
from repro.service.http import serve_until


def _request_bytes(method, path, body=b""):
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    )
    return head.encode() + body


async def _read_response(reader):
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
    payload = json.loads(await reader.readexactly(length))
    return status, payload


async def _free_port() -> int:
    probe = await asyncio.start_server(
        lambda r, w: None, "127.0.0.1", 0
    )
    port = probe.sockets[0].getsockname()[1]
    probe.close()
    await probe.wait_closed()
    return port


class TestServeUntil:
    def test_stop_event_closes_service_and_flushes_store(self, tmp_path):
        service = ModelService(
            ServiceConfig(store_dir=str(tmp_path), drain_timeout_s=1.0)
        )

        async def main():
            stop = asyncio.Event()
            ready = asyncio.Event()
            task = asyncio.create_task(
                serve_until(service, stop, port=0, ready=ready)
            )
            await ready.wait()
            stop.set()
            await asyncio.wait_for(task, timeout=10)

        asyncio.run(main())
        # The shutdown path ran service.close(): the job manager is
        # closed, so new submissions are refused.
        from repro.campaign.spec import CampaignSpec
        import pytest

        with pytest.raises(RuntimeError, match="closed"):
            service.jobs.submit(CampaignSpec(figures=("F8",)))

    def test_inflight_request_drains_before_exit(self, tmp_path):
        service = ModelService(
            ServiceConfig(store_dir=str(tmp_path), drain_timeout_s=5.0)
        )
        results = {}

        async def main():
            stop = asyncio.Event()
            ready = asyncio.Event()
            port = await _free_port()
            task = asyncio.create_task(
                serve_until(service, stop, port=port, ready=ready)
            )
            await ready.wait()

            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            body = json.dumps(
                {"workload": "mmm", "f": 0.99, "design": "ASIC"}
            ).encode()
            writer.write(_request_bytes("POST", "/v1/speedup", body))
            await writer.drain()
            # Trigger shutdown while the response is (potentially)
            # still in flight; the drain phase must still answer it.
            stop.set()
            status, payload = await _read_response(reader)
            results["status"] = status
            results["payload"] = payload
            writer.close()
            await asyncio.wait_for(task, timeout=10)
            # After shutdown the port no longer accepts connections.
            try:
                _, w2 = await asyncio.open_connection("127.0.0.1", port)
            except OSError:
                results["port_closed"] = True
            else:
                w2.close()
                results["port_closed"] = False

        asyncio.run(main())
        assert results["status"] == 200
        assert results["payload"]["point"]["speedup"] > 1
        assert results["port_closed"]


class TestSignalPath:
    @pytest.mark.parametrize(
        "args,listening,shutdown",
        [
            ([], "listening", "shutdown"),
            (["--workers", "2"], "router.listening", "router.shutdown"),
        ],
        ids=["serve", "serve-workers-2"],
    )
    def test_sigterm_exits_cleanly_end_to_end(
        self, tmp_path, args, listening, shutdown
    ):
        """A real `repro-hetsim serve` process drains on SIGTERM; a
        fleet's router also stops every worker before it exits."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else ""
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", *args,
                "--port", "0",
                "--store-dir", str(tmp_path / "store"),
                "--drain-timeout-s", "1",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            # Wait for the structured listening line, then SIGTERM.
            deadline = time.monotonic() + 30
            head = []
            for line in proc.stdout:
                head.append(line)
                if json.loads(line)["event"] == listening:
                    break
            assert time.monotonic() < deadline
            assert head and json.loads(head[-1])["event"] == listening
            # Only a fleet's workers start up before the listening line.
            assert {json.loads(line)["event"] for line in head[:-1]} <= {
                "worker.started", "listening",
            }
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        records = [
            json.loads(line)
            for line in head + out.splitlines()
            if line.strip().startswith("{")
        ]
        events = [record["event"] for record in records]
        assert "draining" in events
        assert shutdown in events
        assert proc.returncode == 0
        for record in records:
            if record["event"] == "worker.started":
                with pytest.raises(ProcessLookupError):
                    os.kill(record["pid"], 0)
