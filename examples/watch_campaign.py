"""Tail a running campaign live, then prove the replay guarantee.

Every campaign job publishes its lifecycle -- queued, started, one
``task.settled`` per panel, finished -- onto a per-job event stream
with monotonic cursors, served over SSE at ``GET /v1/events``.
``repro-hetsim watch <job>`` is the terminal client; this script
drives the same code path in process:

1. **Boot** a model service on an ephemeral port and submit a
   three-figure campaign through ``POST /v1/jobs``.
2. **Watch** the job's stream live from cursor 0: one rendered line
   per event, progress accumulating to ``finished succeeded``.
3. **Replay**: reconnect from cursor 0 after the job is done.  The
   stream is rebuilt from the content-addressed store's event log, so
   the ``--json`` tail is byte-for-byte the live one -- watching late
   loses nothing.
4. **Resume**: reconnect from a mid-stream cursor and get exactly the
   suffix, no gap, no duplicate -- what the watch client leans on
   when a connection drops.

The CLI equivalent of step 2 is::

    repro-hetsim watch <job-id> --url http://127.0.0.1:<port>
"""

import asyncio
import json
import socket
import tempfile
import threading

from repro.service.app import ModelService, ServiceConfig
from repro.service.http import start_server
from repro.service.watch import watch

SPEC = {"figures": ["F6", "F7", "F8"]}


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


def drive(port):
    url = f"http://127.0.0.1:{port}"

    status, accepted = fetch(
        port, "POST", "/v1/jobs", json.dumps(SPEC).encode()
    )
    assert status == 202, accepted
    job_id = json.loads(accepted)["job_id"]
    print(f"submitted {job_id} ({SPEC['figures']})")

    # Live tail from cursor 0: blocks until the job finishes, printing
    # one line per event.  Exit code mirrors the job outcome.
    print("-- live tail " + "-" * 40)
    code = watch(url, job_id, timeout_s=120)
    print(f"-- watch exited {code} " + "-" * 33)

    # The replay guarantee: a fresh tail from cursor 0 sees the exact
    # canonical lines the live tail saw, reconstructed from the
    # store's durable event log if retention already trimmed them.
    tailed = []
    watch(url, job_id, as_json=True, emit=tailed.append, timeout_s=120)
    status, body = fetch(
        port, "GET", f"/v1/events?job_id={job_id}&cursor=0"
    )
    batch = json.loads(body)
    print(
        f"replay from cursor 0: {len(tailed)} events, "
        f"byte-identical to the batch read: "
        f"{tailed == batch['lines']}"
    )

    # Cursors are resume points: reading from the middle returns
    # exactly the suffix.  This is what makes a dropped watch safe to
    # reconnect -- the client just asks again from its last cursor.
    resume_cursor = len(tailed) - 2
    status, body = fetch(
        port, "GET",
        f"/v1/events?job_id={job_id}&cursor={resume_cursor}",
    )
    suffix = json.loads(body)
    print(
        f"resume from cursor {resume_cursor}: "
        f"{[e['kind'] for e in suffix['events']]} "
        f"(suffix match: {suffix['lines'] == tailed[resume_cursor:]})"
    )

    # The job payload names the stream's live cursor, so a poller can
    # hand off to a tail without guessing.
    status, body = fetch(port, "GET", f"/v1/jobs/{job_id}")
    payload = json.loads(body)
    print(
        f"job payload: state={payload['state']}, "
        f"events_cursor={payload['events_cursor']}"
    )


def main():
    config = ServiceConfig(
        store_dir=tempfile.mkdtemp(prefix="watch-campaign-"),
    )
    service = ModelService(config)

    async def serve_and_drive():
        server = await start_server(service, host="127.0.0.1", port=0)
        port = server.sockets[0].getsockname()[1]
        print(f"serving on 127.0.0.1:{port}")
        try:
            await asyncio.get_running_loop().run_in_executor(
                None, drive, port
            )
        finally:
            server.close()
            await server.wait_closed()

    try:
        asyncio.run(serve_and_drive())
    finally:
        service.close()
    print("done")


if __name__ == "__main__":
    main()
