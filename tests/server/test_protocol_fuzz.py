"""Malformed wire input: every bad frame is a typed ProtocolError.

Each case is a raw byte stream a broken or hostile peer might send.  The
reader must turn all of them into :class:`ProtocolError` - never a bare
``ValueError``/``RecursionError`` - because the server's connection
handler only catches the typed error; anything else escapes through
``threading.excepthook`` and kills the handler thread.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

import repro.client
from repro.errors import ProtocolError
from repro.server import protocol
from repro.server.client import _parse_url


def _frame(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


#: Payload cases: a complete frame whose body ``decode_message`` rejects.
PAYLOAD_CASES = {
    "non_utf8": b'\xff\xfe{"op": "hello"}',
    "non_object_json": b"[1, 2, 3]",
    "deep_nesting": b"[" * 100_000,
    "huge_integer": b'{"op": "hello", "n": ' + b"9" * 5000 + b"}",
}

#: Stream cases: the raw bytes a peer sends before closing its write side.
STREAM_CASES = {
    "truncated_header": b"\x00\x00",
    "truncated_payload": protocol.encode_message({"op": "ping"})[:-3],
    "oversized_length": struct.pack(">I", protocol.MAX_MESSAGE_BYTES + 1),
    **{name: _frame(payload) for name, payload in PAYLOAD_CASES.items()},
}


@pytest.mark.parametrize("payload", PAYLOAD_CASES.values(), ids=list(PAYLOAD_CASES))
def test_decode_message_raises_protocol_error(payload):
    with pytest.raises(ProtocolError):
        protocol.decode_message(payload)


@pytest.mark.parametrize("stream", STREAM_CASES.values(), ids=list(STREAM_CASES))
def test_recv_message_raises_protocol_error(stream):
    left, right = socket.socketpair()
    try:
        left.sendall(stream)
        left.shutdown(socket.SHUT_WR)
        with pytest.raises(ProtocolError):
            protocol.recv_message(right)
    finally:
        left.close()
        right.close()


@pytest.fixture(scope="module")
def server():
    srv = repro.serve()
    yield srv
    srv.shutdown()


def _wait_for_handlers_to_exit() -> None:
    deadline = time.monotonic() + 5.0
    while any(t.name == "repro-server-conn" for t in threading.enumerate()):
        assert time.monotonic() < deadline
        time.sleep(0.01)


@pytest.mark.parametrize("stream", STREAM_CASES.values(), ids=list(STREAM_CASES))
def test_server_survives_malformed_stream(server, stream, monkeypatch):
    raised = []
    monkeypatch.setattr(threading, "excepthook", raised.append)
    host, port = _parse_url(server.url)
    with socket.create_connection((host, port), timeout=5.0) as raw:
        raw.sendall(stream)
        raw.shutdown(socket.SHUT_WR)
        assert raw.recv(1) == b""  # the server hangs up on garbage
    _wait_for_handlers_to_exit()
    assert raised == []
    with repro.client.connect(server.url) as fresh:
        assert fresh.execute("SELECT 1").fetchone() == [1]
    # The fresh connection's handler is this test's thread too.
    _wait_for_handlers_to_exit()
