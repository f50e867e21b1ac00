"""The wire format: framing, the typed value codec, and torn-frame handling.

Frames are a u32 big-endian length prefix plus a UTF-8 JSON object; values
JSON cannot carry (bytes, timestamps, :class:`Variant`) round-trip through
tagged objects, and NumPy values flatten to plain Python.  The reader
distinguishes a clean EOF between frames (None) from a peer dying
mid-frame (:class:`ProtocolError`) and rejects oversized length prefixes
before allocating.
"""

from __future__ import annotations

import datetime
import socket
import struct

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.server import protocol
from repro.sqldb.types import SqlType, Variant


def roundtrip(message):
    """Encode, strip the header, decode - one in-memory wire trip."""
    frame = protocol.encode_message(message)
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4
    return protocol.decode_message(frame[4:])


class TestValueCodec:
    def test_plain_json_values_pass_through(self):
        message = {
            "op": "execute",
            "rows": [[1, 2.5, "text", None, True]],
            "nested": {"a": [1, 2]},
        }
        assert roundtrip(message) == message

    def test_bytes_roundtrip_base64(self):
        payload = bytes(range(256))
        assert roundtrip({"blob": payload})["blob"] == payload

    def test_timestamps_roundtrip_iso(self):
        stamp = datetime.datetime(2020, 3, 30, 12, 30, 45, 123456)
        assert roundtrip({"t": stamp})["t"] == stamp

    def test_variant_roundtrips_with_its_type(self):
        variant = Variant(21.5, SqlType.DOUBLE)
        out = roundtrip({"v": variant})["v"]
        assert isinstance(out, Variant)
        assert out.value == 21.5
        assert out.original_type is SqlType.DOUBLE

    def test_numpy_scalars_and_arrays_flatten(self):
        out = roundtrip(
            {
                "f": np.float64(2.5),
                "i": np.int64(7),
                "a": np.array([1.0, 2.0]),
            }
        )
        assert out == {"f": 2.5, "i": 7, "a": [1.0, 2.0]}

    def test_unserializable_value_raises_protocol_error(self):
        with pytest.raises(ProtocolError, match="unserializable"):
            protocol.encode_message({"bad": object()})

    def test_unknown_tag_raises_protocol_error(self):
        frame = protocol.encode_message({"x": 1})
        evil = b'{"x": {"__repro__": "alien"}}'
        with pytest.raises(ProtocolError, match="alien"):
            protocol.decode_message(evil)
        assert protocol.decode_message(frame[4:]) == {"x": 1}

    @pytest.mark.parametrize(
        "tagged",
        [
            {"__repro__": "bytes"},
            {"__repro__": "bytes", "b64": 5},
            {"__repro__": "bytes", "b64": "!!not base64!!"},
            {"__repro__": "timestamp", "iso": "yesterday"},
            {"__repro__": "timestamp", "iso": 17},
            {"__repro__": "variant", "value": 1, "type": "no-such-type"},
            {"__repro__": "variant", "value": 1},
        ],
    )
    def test_malformed_tagged_value_raises_protocol_error(self, tagged):
        payload = protocol.encode_message({"x": tagged})[4:]
        with pytest.raises(ProtocolError, match="malformed tagged"):
            protocol.decode_message(payload)

    def test_non_object_payload_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            protocol.decode_message(b"[1, 2, 3]")
        with pytest.raises(ProtocolError, match="malformed"):
            protocol.decode_message(b"not json at all")


class TestFraming:
    def test_socket_roundtrip(self):
        left, right = socket.socketpair()
        try:
            protocol.send_message(left, {"op": "ping", "n": 1})
            protocol.send_message(left, {"op": "ping", "n": 2})
            assert protocol.recv_message(right) == {"op": "ping", "n": 1}
            assert protocol.recv_message(right) == {"op": "ping", "n": 2}
        finally:
            left.close()
            right.close()

    def test_clean_eof_returns_none(self):
        left, right = socket.socketpair()
        try:
            left.close()
            assert protocol.recv_message(right) is None
        finally:
            right.close()

    def test_torn_header_raises(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"\x00\x00")  # half a length prefix, then EOF
            left.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                protocol.recv_message(right)
        finally:
            right.close()

    def test_torn_payload_raises(self):
        left, right = socket.socketpair()
        try:
            frame = protocol.encode_message({"op": "ping"})
            left.sendall(frame[:-3])  # frame cut short, then EOF
            left.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                protocol.recv_message(right)
        finally:
            right.close()

    def test_oversized_length_prefix_rejected_before_allocation(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">I", protocol.MAX_MESSAGE_BYTES + 1))
            with pytest.raises(ProtocolError, match="cap"):
                protocol.recv_message(right)
        finally:
            left.close()
            right.close()

    def test_oversized_outgoing_message_rejected(self):
        big = {"x": "a" * (protocol.MAX_MESSAGE_BYTES + 16)}
        with pytest.raises(ProtocolError, match="cap"):
            protocol.encode_message(big)
