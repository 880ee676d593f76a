"""Wire protocol for the distributed search executor.

One frame format, stdlib only: a fixed header (magic + big-endian
payload length) followed by a pickled ``(kind, fields)`` tuple.  Both
sides speak the same nine frame kinds:

========== ================ =============================================
kind       direction        fields
========== ================ =============================================
hello      coord -> worker  ``version``, ``digest`` (context fingerprint)
hello-ok   worker -> coord  ``version``, ``have_context``
context    coord -> worker  ``payload`` (pickled oracle context bytes)
ready      worker -> coord  —
error      worker -> coord  ``message``
chunk      coord -> worker  ``chunk_id``, ``candidates``
result     worker -> coord  ``chunk_id``, ``evaluations``, ``spans``,
                            ``counts``, ``metrics``
heartbeat  worker -> coord  ``chunk_id`` (progress keepalive)
bye        coord -> worker  —
========== ================ =============================================

The handshake carries the coordinator's context-fingerprint digest (see
:func:`repro.search.cache.fingerprint_digest`): a worker that already
holds an engine for that digest answers ``have_context=True`` and the
pickled oracle context — the expensive part — ships at most once per
(worker process, context).  After the worker rebuilds a shipped context
it re-derives the digest locally and refuses a mismatch, so a corrupted
or mis-routed payload can never evaluate candidates against the wrong
model.

Pickle over a socket is an explicit trust decision: workers execute
whatever the coordinator ships, so workers must only listen on networks
where every peer is trusted — see ``docs/distributed.md``.
"""

from __future__ import annotations

import pickle
import socket
import struct
from typing import Any, Dict, Optional, Tuple

from repro.faults import fire as _fire_fault

__all__ = [
    "PROTOCOL_VERSION",
    "MAGIC",
    "MAX_FRAME_BYTES",
    "HELLO",
    "HELLO_OK",
    "CONTEXT",
    "READY",
    "ERROR",
    "CHUNK",
    "RESULT",
    "HEARTBEAT",
    "BYE",
    "ProtocolError",
    "parse_address",
    "format_address",
    "send_frame",
    "recv_frame",
]

#: Bumped on any incompatible frame/handshake change; both sides verify.
PROTOCOL_VERSION = 3

#: Frame preamble — catches port collisions with non-repro services
#: before any unpickling happens.
MAGIC = b"RPRO"

_HEADER = struct.Struct("!4sQ")

#: Sanity ceiling on a single frame (a chunk of evaluations is a few
#: hundred KB; anything near this is a corrupted length field).
MAX_FRAME_BYTES = 1 << 30

# Frame kinds.
HELLO = "hello"
HELLO_OK = "hello-ok"
CONTEXT = "context"
READY = "ready"
ERROR = "error"
CHUNK = "chunk"
RESULT = "result"
HEARTBEAT = "heartbeat"
BYE = "bye"


class ProtocolError(RuntimeError):
    """A frame violated the protocol (bad magic, version, or shape)."""


def parse_address(spec: str) -> Tuple[str, int]:
    """Split a ``host:port`` worker address; raises ``ValueError`` with
    the offending spec on anything else (including a bare host or a
    non-numeric port)."""
    host, sep, port = str(spec).strip().rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"worker address must be 'host:port', got {spec!r}")
    try:
        port_num = int(port)
    except ValueError:
        raise ValueError(
            f"worker address port must be an integer, got {spec!r}"
        ) from None
    if not 0 <= port_num <= 65535:
        raise ValueError(f"worker address port out of range: {spec!r}")
    return host, port_num


def format_address(host: str, port: int) -> str:
    return f"{host}:{port}"


def send_frame(sock: socket.socket, kind: str, **fields: Any) -> None:
    """Serialize and send one ``(kind, fields)`` frame.

    Fault site ``dist.frame.send``: ``drop`` fails like a peer that
    vanished mid-write (``ConnectionError``); ``delay`` stalls the send.
    """
    action = _fire_fault("dist.frame.send")
    if action is not None and action.kind == "drop":
        raise ConnectionError(action.describe())
    blob = pickle.dumps((kind, fields), protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER.pack(MAGIC, len(blob)) + blob)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes; raises ``ConnectionError`` on EOF."""
    parts = []
    remaining = n
    while remaining:
        piece = sock.recv(min(remaining, 1 << 20))
        if not piece:
            raise ConnectionError("peer closed the connection")
        parts.append(piece)
        remaining -= len(piece)
    return b"".join(parts)


def recv_frame(
    sock: socket.socket, timeout: Optional[float] = None
) -> Tuple[str, Dict[str, Any]]:
    """Receive one frame; returns ``(kind, fields)``.

    ``timeout`` (seconds) applies per socket read — a peer that stops
    mid-frame raises ``socket.timeout`` (an ``OSError``), which callers
    treat as a dead peer.  Raises :class:`ProtocolError` on bad magic or
    a corrupt length, ``ConnectionError`` on EOF.
    """
    if timeout is not None:
        sock.settimeout(timeout)
    # Fault site ``dist.frame.recv``: ``drop`` fails like a dead peer;
    # ``corrupt`` garbles the decoded payload (exercising the
    # ProtocolError path below); ``delay`` stalls the read.
    action = _fire_fault("dist.frame.recv")
    if action is not None and action.kind == "drop":
        raise ConnectionError(action.describe())
    header = _recv_exact(sock, _HEADER.size)
    magic, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(
            f"bad frame magic {magic!r} (not a repro worker/coordinator?)")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds sanity limit")
    blob = _recv_exact(sock, length)
    if action is not None and action.kind == "corrupt":
        garbled = bytearray(blob)
        for i in range(min(64, len(garbled))):
            garbled[i] ^= 0xFF
        blob = bytes(garbled)
    try:
        kind, fields = pickle.loads(blob)
    except Exception as exc:  # noqa: BLE001 - any unpickling failure
        raise ProtocolError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(kind, str) or not isinstance(fields, dict):
        raise ProtocolError("frame payload is not a (kind, fields) pair")
    return kind, fields
