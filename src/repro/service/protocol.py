"""The local socket wire protocol: bounded JSON lines.

One request, one response, one connection — newline-delimited JSON over
a unix domain socket.  Every receive is bounded twice (KND010): a socket
timeout set *in the receiving function* and a hard cap on message size,
so neither a stalled peer nor a hostile one can wedge or balloon the
daemon.

Requests::

    {"op": "submit", "spec": {...}}      accept/dedupe a job
    {"op": "status"}                     all jobs summary
    {"op": "status", "job": "<id>"}      one job (incl. its child pids)
    {"op": "cancel", "job": "<id>"}      cancel a queued job
    {"op": "follow", "job": "<id>"}      stream progress events to the end
    {"op": "audit", "job": "<id>"}       fencing-token audit of a job
    {"op": "drain"}                      graceful shutdown
    {"op": "ping"}                       liveness probe

Responses are ``{"ok": true, ...}`` or
``{"ok": false, "error": CODE, "detail": "..."}`` with the rejection
codes of :class:`repro.errors.JobRejectedError`.
"""

from __future__ import annotations

import json
import socket

from repro.errors import ServiceProtocolError

#: Hard cap on one wire message; larger is a protocol violation, not a
#: bigger buffer.
MAX_MESSAGE_BYTES = 1 << 20

#: Default socket timeout for one request/response exchange.
DEFAULT_TIMEOUT_S = 10.0

#: Rejection codes the daemon emits.
REJECTED_BUSY = "REJECTED-BUSY"
DRAINING = "DRAINING"
BAD_REQUEST = "BAD-REQUEST"
UNKNOWN_JOB = "UNKNOWN-JOB"
NOT_CANCELLABLE = "NOT-CANCELLABLE"
#: A daemon has lost its campaign store and is read-only until its
#: rejoin probe succeeds (see :mod:`repro.service.daemon`).
PARTITIONED = "PARTITIONED"


def send_message(sock: socket.socket, obj: dict,
                 timeout_s: float = DEFAULT_TIMEOUT_S) -> None:
    """Send one JSON-line message, bounded by ``timeout_s``."""
    raw = (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")
    if len(raw) > MAX_MESSAGE_BYTES:
        raise ServiceProtocolError(
            f"outgoing message of {len(raw)} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte protocol cap"
        )
    sock.settimeout(timeout_s)
    try:
        sock.sendall(raw)
    except (OSError, socket.timeout) as exc:
        raise ServiceProtocolError(f"send failed: {exc}") from exc


def recv_message(sock: socket.socket,
                 timeout_s: float = DEFAULT_TIMEOUT_S) -> dict:
    """Receive one JSON-line message, bounded in time and size."""
    sock.settimeout(timeout_s)
    chunks = bytearray()
    while True:
        try:
            chunk = sock.recv(4096)
        except socket.timeout as exc:
            raise ServiceProtocolError(
                f"peer sent no complete message within {timeout_s}s"
            ) from exc
        except OSError as exc:
            raise ServiceProtocolError(f"recv failed: {exc}") from exc
        if not chunk:
            raise ServiceProtocolError("peer closed mid-message")
        chunks += chunk
        if len(chunks) > MAX_MESSAGE_BYTES:
            raise ServiceProtocolError(
                f"incoming message exceeds the {MAX_MESSAGE_BYTES}-byte "
                f"protocol cap"
            )
        if b"\n" in chunks:
            break
    line = bytes(chunks).split(b"\n", 1)[0]
    try:
        obj = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ServiceProtocolError(f"malformed message: {exc}") from exc
    if not isinstance(obj, dict):
        raise ServiceProtocolError(
            f"message must be a JSON object, got {type(obj).__name__}"
        )
    return obj


def ok(**fields) -> dict:
    out = {"ok": True}
    out.update(fields)
    return out


def error(code: str, detail: str) -> dict:
    return {"ok": False, "error": code, "detail": detail}
