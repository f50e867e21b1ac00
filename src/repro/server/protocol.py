"""Wire protocol: length-prefixed JSON frames with a typed value codec.

Every message is one frame::

    +----------------+---------------------------+
    | u32 big-endian |  UTF-8 JSON object        |
    | payload length |  (the message)            |
    +----------------+---------------------------+

JSON keeps the protocol debuggable (``nc`` + a hex dump is enough to watch
a session) while the framing keeps it streamable: a reader never has to
scan for delimiters, and torn frames are detected instead of misparsed.

Values that JSON cannot carry natively round-trip through tagged objects
(``{"__repro__": kind, ...}``): ``bytes`` (base64), ``datetime``
(ISO-8601), and the engine's :class:`~repro.sqldb.types.Variant`.  NumPy
scalars flatten to their Python equivalents and NumPy arrays to lists -
the client sees plain Python either way.  NaN/Infinity use Python's JSON
literals, which is fine for this Python-to-Python protocol.

Requests and responses are free-form dicts; the conventions
(``{"op": ...}`` / ``{"ok": true, ...}``) live in
:mod:`repro.server.service` and :mod:`repro.server.client`.
"""

from __future__ import annotations

import base64
import datetime
import json
import socket
import struct
from typing import Any, Dict, Optional

from repro.errors import ProtocolError
from repro.sqldb.types import SqlType, Variant

#: Protocol revision; the hello response carries it so clients can detect
#: incompatible servers before sending statements.
PROTOCOL_VERSION = 1

#: Hard cap on one frame (requests and responses); oversized frames are
#: rejected before allocation so a corrupt length prefix cannot OOM the
#: server.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")
_TAG = "__repro__"


# --------------------------------------------------------------------------- #
# Value codec
# --------------------------------------------------------------------------- #
def _json_default(value: Any) -> Any:
    if isinstance(value, (bytes, bytearray, memoryview)):
        return {_TAG: "bytes", "b64": base64.b64encode(bytes(value)).decode("ascii")}
    if isinstance(value, datetime.datetime):
        return {_TAG: "timestamp", "iso": value.isoformat()}
    if isinstance(value, Variant):
        return {_TAG: "variant", "value": value.value, "type": value.original_type.value}
    tolist = getattr(value, "tolist", None)
    if callable(tolist):  # numpy arrays and scalars
        return tolist()
    item = getattr(value, "item", None)
    if callable(item):  # any remaining numpy-like scalar
        return item()
    raise TypeError(f"cannot serialize a {type(value).__name__} value on the wire")


def _object_hook(obj: Dict[str, Any]) -> Any:
    kind = obj.get(_TAG)
    if kind is None:
        return obj
    try:
        if kind == "bytes":
            return base64.b64decode(obj["b64"], validate=True)
        if kind == "timestamp":
            return datetime.datetime.fromisoformat(obj["iso"])
        if kind == "variant":
            return Variant(obj["value"], SqlType(obj["type"]))
    except (KeyError, TypeError, ValueError) as exc:
        # A missing field, a wrongly typed one, bad base64, a malformed
        # timestamp or an unknown SqlType: all one malformed message.
        raise ProtocolError(f"malformed tagged {kind!r} value: {exc!r}") from exc
    raise ProtocolError(f"unknown tagged value kind {kind!r}")


# --------------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------------- #
def encode_message(message: Dict[str, Any]) -> bytes:
    """One wire frame (header + JSON payload) for ``message``."""
    try:
        payload = json.dumps(
            message, separators=(",", ":"), default=_json_default
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unserializable message: {exc}") from exc
    if len(payload) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"message of {len(payload)} bytes exceeds the {MAX_MESSAGE_BYTES}-byte frame cap"
        )
    return _HEADER.pack(len(payload)) + payload


def decode_message(payload: bytes) -> Dict[str, Any]:
    """The message inside one frame payload."""
    try:
        message = json.loads(payload.decode("utf-8"), object_hook=_object_hook)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed frame payload: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    return message


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Frame and send one message (blocking until fully written)."""
    sock.sendall(encode_message(message))


def recv_message(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one message; None on a clean EOF between frames.

    EOF *inside* a frame (header or payload cut short) raises
    :class:`~repro.errors.ProtocolError` - the peer died mid-message and
    the remainder of the stream cannot be trusted.
    """
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {MAX_MESSAGE_BYTES}-byte cap"
        )
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ProtocolError("connection closed mid-frame")
    return decode_message(payload)


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Exactly ``count`` bytes, or None on EOF at a frame boundary."""
    if count == 0:
        return b""
    chunks = bytearray()
    while len(chunks) < count:
        chunk = sock.recv(count - len(chunks))
        if not chunk:
            if not chunks:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.extend(chunk)
    return bytes(chunks)
