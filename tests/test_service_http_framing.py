"""Property tests (hypothesis) for the one HTTP/1.1 framing module.

:mod:`repro.service.http` reads every request a server or the router
accepts and every answer the router reads back from a worker, so its
reader must survive any bytes: each input yields requests, a clean
EOF, a ``_ProtocolError`` (answered 400 or 413) or an
``IncompleteReadError`` (the peer left mid-message), nothing else.
What the module encodes it reads back unchanged, including responses
past the 1 MiB client body cap, which the router relays from workers.
"""

import asyncio
import string

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service.http import (
    MAX_BODY_BYTES,
    EncodedBody,
    _encode_response,
    _ProtocolError,
    _read_request,
    encode_request,
    read_response,
)


def _read_all(parse, data):
    """Every message ``parse`` reads from ``data`` before a clean EOF,
    through a stream with the server's 64 KiB line limit."""

    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        messages = []
        while True:
            message = await parse(reader)
            if message is None:
                return messages
            messages.append(message)

    return asyncio.run(main())


#: Fragments that assemble into near-valid requests, so the fuzzer
#: reaches the header loop and body read rather than stopping at the
#: request line.
_FRAGMENTS = st.sampled_from(
    [
        b"GET /healthz HTTP/1.1\r\n",
        b"POST /v1/speedup HTTP/1.1\r\n",
        b"GET",
        b" ",
        b"\r\n",
        b"\n",
        b":",
        b"Host: t\r\n",
        b"Connection: close\r\n",
        b"Content-Length: ",
        b"0",
        b"3",
        b"+3",
        b"1_0",
        b"-1",
        b"99999999",
        b"{}",
        b"\xff\x00",
        b"a" * 5000,
        b"a" * (20 << 10),
        b"a" * (70 << 10),
    ]
)

_TOKEN = st.text(string.ascii_lowercase + string.digits + "-", min_size=1,
                 max_size=16)
_VALUE = st.text(
    string.ascii_letters + string.digits + string.punctuation + " \t",
    max_size=40,
).map(str.strip)
_HEADERS = st.dictionaries(
    _TOKEN.filter(
        lambda name: name
        not in ("content-length", "content-type", "connection")
    ),
    _VALUE,
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=512),
        st.lists(_FRAGMENTS, max_size=24).map(b"".join),
    )
)
@example(b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * (70 << 10) + b"\r\n\r\n")
def test_any_bytes_frame_or_fail_cleanly(data):
    try:
        requests = _read_all(_read_request, data)
    except (_ProtocolError, asyncio.IncompleteReadError):
        return
    for method, path, headers, body in requests:
        assert isinstance(method, str) and isinstance(path, str)
        assert isinstance(headers, dict) and len(body) <= MAX_BODY_BYTES


@settings(max_examples=200, deadline=None)
@given(
    method=st.text(string.ascii_uppercase, min_size=1, max_size=10),
    path=st.text(
        string.ascii_letters + string.digits + "/?&=%._-", max_size=60
    ).map(lambda tail: "/" + tail),
    headers=_HEADERS,
    body=st.binary(max_size=2048),
    keep_alive=st.booleans(),
)
@example(
    method="POST", path="/v1/speedup", headers={}, body=b"x" * MAX_BODY_BYTES,
    keep_alive=True,
)
def test_encode_request_round_trips(method, path, headers, body, keep_alive):
    raw = encode_request(method, path, headers, body, keep_alive)
    # Two in a row: keep-alive framing must end each one exactly.
    requests = _read_all(_read_request, raw + raw)
    expected = dict(
        headers,
        **{
            "content-length": str(len(body)),
            "connection": "keep-alive" if keep_alive else "close",
        },
    )
    assert requests == [(method, path, expected, body)] * 2


@settings(max_examples=60, deadline=None)
@given(
    status=st.integers(100, 599),
    size=st.integers(0, 2 << 20),
    pattern=st.binary(min_size=1, max_size=64),
    content_type=_VALUE.filter(bool),
    headers=_HEADERS,
    keep_alive=st.booleans(),
)
@example(
    status=200, size=2 << 20, pattern=b"{}", content_type="application/json",
    headers={}, keep_alive=True,
)
def test_encode_response_round_trips_past_the_body_cap(
    status, size, pattern, content_type, headers, keep_alive
):
    body = (pattern * (size // len(pattern) + 1))[:size]
    raw = _encode_response(
        status, EncodedBody(body, content_type), keep_alive, headers
    )
    expected = dict(
        headers,
        **{
            "content-type": content_type,
            "content-length": str(size),
            "connection": "keep-alive" if keep_alive else "close",
        },
    )
    assert _read_all(read_response, raw) == [(status, expected, body)]
