"""Scale the serving layer out to a fleet of worker processes.

``repro-hetsim serve --workers N`` puts an asyncio router in front of
N spawned worker processes, each a full single-process model service
with its own LRU cache.  The router rendezvous-hashes every request's
*locality key* (workload, design, f -- never the node, so a design's
whole roadmap stays on one worker), so repeat traffic always lands on
the worker whose cache already holds the answer.  This script drives
that machinery in process:

1. **Boot** a 2-worker cluster on an ephemeral port.
2. **Route**: the same request, asked twice, returns byte-identical
   answers -- the second from the owning worker's cache.
3. **Observe**: ``/healthz`` reports fleet liveness and topology;
   ``/metrics`` merges every worker's counters into one scrape.
4. **Crash**: kill a worker; the watchdog respawns it under the same
   name, so rendezvous hands the replacement its old key range and
   the answer is again byte-identical.

The CLI equivalent is::

    repro-hetsim serve --workers 2 --port 8000
"""

import asyncio
import json
import socket
import time

from repro.cluster import ClusterConfig, Router, WorkerSupervisor
from repro.service.app import ServiceConfig

REQUEST = {"workload": "fft", "f": 0.99, "design": "GTX480"}


def fetch(port, method, path, body=b""):
    """One raw HTTP/1.1 round trip, as any external client would."""
    conn = socket.create_connection(("127.0.0.1", port), timeout=30)
    conn.sendall(
        (
            f"{method} {path} HTTP/1.1\r\nHost: demo\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Content-Type: application/json\r\n"
            f"Connection: close\r\n\r\n"
        ).encode()
        + body
    )
    data = b""
    while True:
        chunk = conn.recv(65536)
        if not chunk:
            break
        data += chunk
    conn.close()
    head, _, payload = data.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, payload


def drive(port, supervisor):
    body = json.dumps(REQUEST).encode()

    status, first = fetch(port, "POST", "/v1/speedup", body)
    assert status == 200, first
    answer = json.loads(first)
    print(
        f"speedup({REQUEST['design']}, f={REQUEST['f']}): "
        f"{answer['point']['speedup']:.2f}x "
        f"(limited by {answer['point']['limiter']})"
    )
    status, second = fetch(port, "POST", "/v1/speedup", body)
    print("asked again -> byte-identical:", first == second)

    status, health = fetch(port, "GET", "/healthz")
    payload = json.loads(health)
    print(
        f"healthz: {payload['status']}, topology {payload['topology']}, "
        f"{payload['cluster']['alive']}/{payload['cluster']['configured']}"
        " workers alive"
    )

    status, metrics = fetch(port, "GET", "/metrics")
    merged = json.loads(metrics)
    for name in sorted(merged["workers"]):
        cache = merged["workers"][name]["cache"]
        print(
            f"  {name}: cache hits={cache['hits']} "
            f"misses={cache['misses']}"
        )

    # Crash one worker.  The router's watchdog respawns it under the
    # same name; rendezvous hashing hands the replacement exactly the
    # key range the corpse owned.
    victim = "w1"
    print(f"killing {victim}...")
    process = supervisor._slots[victim].process
    process.kill()
    process.join(10)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        status, health = fetch(port, "GET", "/healthz")
        payload = json.loads(health)
        if status == 200 and payload["status"] == "ok":
            break
        time.sleep(0.2)
    respawns = payload["cluster"]["workers"][victim]["respawns"]
    print(f"fleet healed: {payload['status']} (respawns={respawns})")
    status, reborn = fetch(port, "POST", "/v1/speedup", body)
    print("answer after respawn byte-identical:", reborn == first)


def main():
    config = ClusterConfig(
        workers=2,
        service=ServiceConfig(),
        host="127.0.0.1",
        port=0,
        respawn_backoff_s=0.1,
    )
    supervisor = WorkerSupervisor(config)
    ports = supervisor.start()
    print("worker fleet:", ports)
    router = Router(config, supervisor)

    async def serve_and_drive():
        stop = asyncio.Event()
        ready = asyncio.Event()
        serving = asyncio.ensure_future(
            router.serve_until(stop, ready=ready)
        )
        await ready.wait()
        print(f"router listening on 127.0.0.1:{router.bound_port}")
        await asyncio.get_running_loop().run_in_executor(
            None, drive, router.bound_port, supervisor
        )
        stop.set()
        await serving

    try:
        asyncio.run(serve_and_drive())
    finally:
        supervisor.stop()
    print("done")


if __name__ == "__main__":
    main()
