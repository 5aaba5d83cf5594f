"""Socket-level tests: real bytes through the asyncio HTTP transport.

Each test binds an ephemeral port, speaks raw HTTP/1.1 over an asyncio
stream client, and checks the wire behaviour (status lines, headers,
keep-alive, protocol errors) plus exact float round-tripping of served
results through the JSON body.
"""

import asyncio
import json
import logging

import pytest

from repro.service.app import ModelService, ServiceConfig
from repro.service.http import start_server


async def _serve():
    """An ephemeral-port server; returns (service, server, port)."""
    service = ModelService(ServiceConfig())
    server = await start_server(service, port=0)
    port = server.sockets[0].getsockname()[1]
    return service, server, port


async def _shutdown(service, server):
    server.close()
    await server.wait_closed()
    service.close()


def _request_bytes(method, path, body=None, close=False):
    payload = b"" if body is None else json.dumps(body).encode()
    head = f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
    if close:
        head += "Connection: close\r\n"
    if payload:
        head += f"Content-Length: {len(payload)}\r\n"
    head += "\r\n"
    return head.encode() + payload


async def _read_response(reader):
    """Parse one response: (status, headers, decoded-JSON body)."""
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers["content-length"]))
    return status, headers, json.loads(body)


async def _roundtrip(port, raw):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(raw)
    await writer.drain()
    response = await _read_response(reader)
    writer.close()
    await writer.wait_closed()
    return response


class TestWire:
    def test_healthz_over_socket(self):
        async def main():
            service, server, port = await _serve()
            try:
                return await _roundtrip(
                    port, _request_bytes("GET", "/healthz", close=True)
                )
            finally:
                await _shutdown(service, server)

        status, headers, payload = asyncio.run(main())
        assert status == 200
        assert headers["content-type"] == "application/json"
        assert headers["connection"] == "close"
        assert payload["status"] == "ok"

    def test_speedup_floats_survive_the_wire(self):
        """JSON repr round-trips doubles exactly: the served speedup is
        bit-identical to the in-process engine result."""
        from repro.core.optimizer import optimize
        from repro.projection.designs import standard_designs
        from repro.projection.engine import node_budget
        from repro.itrs.scenarios import BASELINE

        body = {"workload": "fft", "f": 0.99, "design": "ASIC",
                "node_nm": 22}

        async def main():
            service, server, port = await _serve()
            try:
                return await _roundtrip(
                    port,
                    _request_bytes("POST", "/v1/speedup", body,
                                   close=True),
                )
            finally:
                await _shutdown(service, server)

        status, _, payload = asyncio.run(main())
        assert status == 200
        design = {
            d.short_label: d for d in standard_designs("fft", 1024)
        }["ASIC"]
        budget = node_budget(
            BASELINE.roadmap.node(22), "fft", 1024, BASELINE,
            bandwidth_exempt=design.bandwidth_exempt,
        )
        direct = optimize(design.chip, 0.99, budget)
        assert payload["point"]["speedup"] == direct.speedup

    def test_body_longer_than_one_read_arrives_whole(self):
        """A body several times ``READ_BYTES`` (JSON padded with
        whitespace) is reassembled across reads and answered like the
        compact one."""
        from repro.service.http import READ_BYTES

        body = {"workload": "mmm", "f": 0.99, "design": "ASIC",
                "node_nm": 22}
        padded = json.dumps(body).encode() + b" " * (5 * READ_BYTES)
        raw = (
            f"POST /v1/speedup HTTP/1.1\r\nHost: localhost\r\n"
            f"Connection: close\r\nContent-Length: {len(padded)}\r\n\r\n"
        ).encode() + padded

        async def main():
            service, server, port = await _serve()
            try:
                return (
                    await _roundtrip(port, raw),
                    await _roundtrip(
                        port,
                        _request_bytes("POST", "/v1/speedup", body,
                                       close=True),
                    ),
                )
            finally:
                await _shutdown(service, server)

        padded_answer, compact_answer = asyncio.run(main())
        assert padded_answer[0] == 200
        assert padded_answer[2] == compact_answer[2]

    def test_job_submission_is_202_accepted(self, tmp_path):
        """The status line names 202: in the encoder, and on the wire
        for a ``POST /v1/jobs``."""
        from repro.service.http import _encode_response

        assert _encode_response(202, {"job_id": "j"}, True).startswith(
            b"HTTP/1.1 202 Accepted\r\n"
        )
        body = {"sensitivity": [{"workload": "mmm", "f": 0.99,
                                 "trials": 2}]}

        async def main():
            service = ModelService(ServiceConfig(store_dir=str(tmp_path)))
            server = await start_server(service, port=0)
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(
                    _request_bytes("POST", "/v1/jobs", body, close=True)
                )
                await writer.drain()
                status_line = await reader.readline()
                await reader.read()
                writer.close()
                await writer.wait_closed()
                return status_line
            finally:
                await _shutdown(service, server)

        assert asyncio.run(main()) == b"HTTP/1.1 202 Accepted\r\n"

    def test_keep_alive_serves_two_requests(self):
        async def main():
            service, server, port = await _serve()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(_request_bytes("GET", "/healthz"))
                await writer.drain()
                first = await _read_response(reader)
                writer.write(_request_bytes("GET", "/metrics"))
                await writer.drain()
                second = await _read_response(reader)
                writer.close()
                await writer.wait_closed()
                return first, second
            finally:
                await _shutdown(service, server)

        first, second = asyncio.run(main())
        assert first[0] == 200
        assert first[1]["connection"] == "keep-alive"
        assert second[0] == 200
        # The second response is /metrics and saw the first request.
        assert second[2]["requests"]["/healthz"]["200"] == 1

    @pytest.mark.parametrize(
        "raw",
        [
            b"NONSENSE\r\n\r\n",
            # A header line past asyncio's 64 KiB stream limit.
            b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * (70 << 10)
            + b"\r\n\r\n",
            # Content-Length is 1*DIGIT, though int() takes +3 and 1_0.
            b"POST /v1/speedup HTTP/1.1\r\nContent-Length: +3\r\n\r\n{}\n",
            b"POST /v1/speedup HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n"
            b"{}        ",
            b"POST /v1/speedup HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
            b"POST /v1/speedup HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
        ],
        ids=[
            "request-line", "header-line-70k", "length-plus",
            "length-underscore", "length-negative", "length-alpha",
        ],
    )
    def test_malformed_request_line_400(self, raw):
        async def main():
            service, server, port = await _serve()
            try:
                return await _roundtrip(port, raw)
            finally:
                await _shutdown(service, server)

        status, headers, payload = asyncio.run(main())
        assert status == 400
        assert payload["error"] == "ProtocolError"
        assert headers["connection"] == "close"

    def test_oversized_body_413(self):
        async def main():
            service, server, port = await _serve()
            try:
                raw = (
                    b"POST /v1/speedup HTTP/1.1\r\n"
                    b"Content-Length: 9999999\r\n\r\n"
                )
                return await _roundtrip(port, raw)
            finally:
                await _shutdown(service, server)

        status, _, payload = asyncio.run(main())
        assert status == 413
        assert "exceeds" in payload["message"]

    def test_unknown_route_404_over_socket(self):
        async def main():
            service, server, port = await _serve()
            try:
                return await _roundtrip(
                    port,
                    _request_bytes("GET", "/nope", close=True),
                )
            finally:
                await _shutdown(service, server)

        status, _, payload = asyncio.run(main())
        assert status == 404
        assert payload["error"] == "NotFoundError"

    def test_bad_json_body_400_over_socket(self):
        async def main():
            service, server, port = await _serve()
            try:
                raw = (
                    b"POST /v1/speedup HTTP/1.1\r\n"
                    b"Content-Length: 9\r\n"
                    b"Connection: close\r\n\r\n"
                    b"{not json"
                )
                return await _roundtrip(port, raw)
            finally:
                await _shutdown(service, server)

        status, _, payload = asyncio.run(main())
        assert status == 400
        assert payload["error"] == "BadRequestError"


class _Records(logging.Handler):
    """The structured fields of every record a logger emits."""

    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        self.records.append((record.getMessage(), record.data))


class TestInternalErrors:
    def test_handler_fault_is_a_500_on_a_live_connection(self):
        """An exception the service does not map is answered 500
        ``InternalError`` and counted as a 5xx; its traceback is
        logged with the request's ids; the keep-alive connection
        serves the next request."""
        body = {"workload": "mmm", "f": 0.99, "design": "GTX480"}
        logger = logging.getLogger("repro.service")
        records = _Records()
        logger.addHandler(records)

        async def main():
            service, server, port = await _serve()
            evaluate = service._eval_speedup
            faults = [RuntimeError("evaluator broke")]

            def fails_once(request):
                if faults:
                    raise faults.pop()
                return evaluate(request)

            service._eval_speedup = fails_once
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                answers = []
                for _ in range(2):
                    writer.write(_request_bytes("POST", "/v1/speedup", body))
                    await writer.drain()
                    answers.append(await _read_response(reader))
                writer.close()
                await writer.wait_closed()
                requests = service.registry.get(
                    "repro_service_requests_total"
                )
                return answers, {
                    status: requests.value(
                        endpoint="/v1/speedup", status=status
                    )
                    for status in ("500", "200")
                }
            finally:
                await _shutdown(service, server)

        try:
            (failed, answered), counted = asyncio.run(main())
        finally:
            logger.removeHandler(records)
        status, headers, payload = failed
        assert status == 500
        assert payload == {
            "error": "InternalError", "message": "RuntimeError",
        }
        assert headers["connection"] == "keep-alive"
        assert answered[0] == 200
        assert answered[2]["point"]["speedup"] > 1
        assert counted == {"500": 1, "200": 1}
        [logged] = [
            fields for event, fields in records.records
            if event == "request.failed"
        ]
        assert logged["request_id"] == headers["x-request-id"]
        assert logged["trace_id"] == headers["x-trace-id"]
        assert logged["error"] == "RuntimeError"
        assert "RuntimeError: evaluator broke" in logged["traceback"]
